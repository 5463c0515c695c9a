package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
)

// recorder is a reusable in-memory http.ResponseWriter: one per client, reset
// before every request, so driving the handler allocates nothing on the
// benchmark's side.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

// client drives one handler in-process through ServeHTTP, with no sockets.
// It reuses one request, body reader and recorder across calls; calls on one
// client must not overlap.
type client struct {
	h    http.Handler
	req  *http.Request
	body bytes.Reader
	rec  recorder
}

func newClient(h http.Handler, target string) *client {
	c := &client{h: h, rec: recorder{hdr: make(http.Header)}}
	c.req = httptest.NewRequest(http.MethodPost, target, nil)
	c.req.Header.Set("Content-Type", "application/json")
	c.req.Body = io.NopCloser(&c.body)
	return c
}

// do sends one request body and returns the response status; the response
// body stays in c.rec.body until the next call.
func (c *client) do(body []byte) int {
	c.body.Reset(body)
	c.req.ContentLength = int64(len(body))
	clear(c.rec.hdr)
	c.rec.status = 0
	c.rec.body.Reset()
	c.h.ServeHTTP(&c.rec, c.req)
	if c.rec.status == 0 {
		return http.StatusOK
	}
	return c.rec.status
}

func ok2xx(status int) bool { return status >= 200 && status < 300 }
