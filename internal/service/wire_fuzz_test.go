package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzPredictBody drives POST /v1/predict through the full handler with an
// arbitrary body. X-Deadline-Ms bounds each request, so inputs near the
// request ceilings answer 504 instead of solving for seconds. The oracle:
//   - no panic and no 500: every engine failure on client input is a
//     client error;
//   - every non-200 answer carries the structured error body;
//   - a body that decodes as a predict request and is refused gets a 400
//     (or a 503/504 from admission or the deadline), never another status;
//   - a 200 carries a finite, positive responseTime.
func FuzzPredictBody(f *testing.F) {
	for _, tc := range goldenHTTPCases {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(`{"cluster":{"nodes":0},"job":{"inputMB":1024}}`))
	f.Add([]byte(`{"cluster":{"nodes":4},"workflow":{"stages":[{"name":"a","job":{"inputMB":512}},{"name":"b","job":{"inputMB":512,"reduces":2}}],"edges":[{"from":"a","to":"b"}]}}`))
	h := NewHandler(New(Options{Workers: 2}), ServerConfig{})
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		r.Header.Set(DeadlineHeader, "200")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)

		var req predictWire
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		decodable := dec.Decode(&req) == nil

		switch st := w.Code; st {
		case http.StatusOK:
			var out struct {
				ResponseTime *float64 `json:"responseTime"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil || out.ResponseTime == nil {
				t.Fatalf("200 without a responseTime (%v): %s", err, w.Body.Bytes())
			}
			if rt := *out.ResponseTime; !(rt > 0) || math.IsInf(rt, 0) {
				t.Fatalf("200 with responseTime %v for %q", rt, body)
			}
		case http.StatusBadRequest, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			if !decodable && st != http.StatusBadRequest {
				t.Fatalf("undecodable body answered %d, want 400: %q", st, body)
			}
			var e errorWire
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%d without the structured error body (%v): %s", st, err, w.Body.Bytes())
			}
		default:
			t.Fatalf("status %d for %q: %s", st, body, w.Body.Bytes())
		}
	})
}
