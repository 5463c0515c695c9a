package service

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"hadoop2perf/internal/core"
	"hadoop2perf/internal/mrsim"
	"hadoop2perf/internal/timeline"
	"hadoop2perf/internal/trace"
)

// Profile registry defaults and bounds.
const (
	// DefaultProfileTTL is how long a calibrated profile stays resolvable
	// when Options.ProfileTTL is zero. Fleets are expected to recalibrate
	// continuously from fresh JobHistory traces; an expired profile failing
	// loudly beats a year-old one silently seeding predictions.
	DefaultProfileTTL = time.Hour
	// DefaultMaxProfiles bounds the registry population when
	// Options.MaxProfiles is zero.
	DefaultMaxProfiles = 256
	// MaxProfileNameLen bounds calibrated profile names (they ride cache
	// keys, logs and metrics labels).
	MaxProfileNameLen = 100
)

// CalibrateRequest fits a named profile from a parsed job-history trace
// (§4.2.1, first initialization approach). The fitted per-class statistics
// are stored in the service's versioned profile registry; subsequent
// Predict/Compare/Plan requests reference them by name.
type CalibrateRequest struct {
	// Name identifies the profile; calibrating an existing name replaces it
	// with a new version, and every cache entry keyed on the old content
	// becomes unreachable.
	Name string
	// Result is the parsed trace (e.g. from trace.Read). Library callers
	// handing constructed results get the same sanity validation Read
	// applies to documents.
	Result mrsim.Result
	// Fit tunes outlier trimming, sample floors and CV floors.
	Fit trace.FitOptions
	// TTL overrides the service's default profile lifetime when positive.
	TTL time.Duration
}

func (r *CalibrateRequest) validate() error {
	if r.Name == "" {
		return fmt.Errorf("service: calibrate needs a profile name")
	}
	if len(r.Name) > MaxProfileNameLen {
		return fmt.Errorf("service: profile name exceeds %d bytes", MaxProfileNameLen)
	}
	if strings.ContainsFunc(r.Name, func(c rune) bool { return c <= ' ' || c == 0x7f }) {
		return fmt.Errorf("service: profile name %q contains whitespace or control characters", r.Name)
	}
	if r.TTL < 0 {
		return fmt.Errorf("service: negative profile TTL %v", r.TTL)
	}
	return trace.Validate(r.Result)
}

// CalibrateResponse reports the stored profile and its fitted statistics.
type CalibrateResponse struct {
	// Profile identifies the stored version; its Hash changes whenever the
	// fitted content changes, which is what invalidates cached predictions.
	Profile ProfileInfo
	// Classes is the per-class fit (statistics plus sample provenance).
	Classes map[timeline.Class]trace.FittedClass
}

// ProfileInfo is the registry's public view of one calibrated profile.
type ProfileInfo struct {
	// Name is the reference key used by request Profile fields.
	Name string `json:"name"`
	// Version increments on every store across the registry; a prediction's
	// ProfileVersion ties it to the exact calibration that seeded it.
	Version int64 `json:"version"`
	// Hash is the canonical content hash of the fitted statistics — the
	// value folded into cache keys.
	Hash string `json:"hash"`
	// Jobs and Samples count the trace records behind the fit.
	Jobs    int `json:"jobs"`
	Samples int `json:"samples"` // see Jobs
	// CreatedAt and ExpiresAt bound the profile's lifetime; resolution after
	// ExpiresAt fails until the profile is recalibrated.
	CreatedAt time.Time `json:"createdAt"`
	ExpiresAt time.Time `json:"expiresAt"` // see CreatedAt
}

// calibratedProfile is one stored registry entry. The history map is
// immutable after store: resolutions hand it to concurrent model runs.
type calibratedProfile struct {
	info    ProfileInfo
	history map[timeline.Class]core.ClassStats
	classes map[timeline.Class]trace.FittedClass
}

// profileRegistry is the mutex-guarded name → calibrated-profile store with
// per-entry expiry and a monotone version counter.
type profileRegistry struct {
	mu      sync.RWMutex
	max     int
	ttl     time.Duration
	now     func() time.Time // injectable clock (expiry tests)
	version int64
	byName  map[string]*calibratedProfile
}

func newProfileRegistry(max int, ttl time.Duration) *profileRegistry {
	return &profileRegistry{max: max, ttl: ttl, now: time.Now, byName: make(map[string]*calibratedProfile)}
}

// store fits nothing itself — it files an already-fitted result under name,
// assigning the next registry version. Expired entries are purged first so
// dead names do not count against the population bound.
func (r *profileRegistry) store(name string, fit trace.FitResult, ttl time.Duration) (*calibratedProfile, error) {
	if ttl <= 0 {
		ttl = r.ttl
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	for n, p := range r.byName {
		if !p.info.ExpiresAt.After(now) {
			delete(r.byName, n)
		}
	}
	if _, exists := r.byName[name]; !exists && len(r.byName) >= r.max {
		return nil, fmt.Errorf("service: profile registry full (%d entries); recalibrate an existing name or raise Options.MaxProfiles", r.max)
	}
	r.version++
	p := &calibratedProfile{
		info: ProfileInfo{
			Name:      name,
			Version:   r.version,
			Hash:      profileContentHash(fit.History),
			Jobs:      fit.Jobs,
			Samples:   fit.Tasks,
			CreatedAt: now,
			ExpiresAt: now.Add(ttl),
		},
		history: fit.History,
		classes: fit.Classes,
	}
	r.byName[name] = p
	return p, nil
}

// resolve returns the live profile stored under name, or an error naming
// the failure mode (unknown vs. expired) so clients can tell a typo from a
// stale calibration.
func (r *profileRegistry) resolve(name string) (*calibratedProfile, error) {
	r.mu.RLock()
	p, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("service: unknown profile %q (calibrate it first)", name)
	}
	if !p.info.ExpiresAt.After(r.now()) {
		return nil, fmt.Errorf("service: profile %q expired at %s; recalibrate it", name, p.info.ExpiresAt.Format(time.RFC3339))
	}
	return p, nil
}

// list snapshots the live (unexpired) profiles, sorted by name.
func (r *profileRegistry) list() []ProfileInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	now := r.now()
	out := make([]ProfileInfo, 0, len(r.byName))
	for _, p := range r.byName {
		if p.info.ExpiresAt.After(now) {
			out = append(out, p.info)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// liveCount reports the unexpired registry population (metrics).
func (r *profileRegistry) liveCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	now := r.now()
	for _, p := range r.byName {
		if p.info.ExpiresAt.After(now) {
			n++
		}
	}
	return n
}

// Calibrate fits a named profile from a trace and stores it in the
// registry. Requests referencing the name afterwards resolve to this
// version; cached predictions keyed on any earlier version become
// unreachable because cache keys hash the resolved profile content.
//
// The fit runs under a worker-pool slot like every other compute path:
// traces carry up to 16 MiB of task records, and a calibration burst must
// degrade into queueing rather than starve the prediction workers.
func (s *Service) Calibrate(ctx context.Context, req CalibrateRequest) (CalibrateResponse, error) {
	s.calibrateReqs.Add(1)
	if err := req.validate(); err != nil {
		return CalibrateResponse{}, invalid(err)
	}
	if err := s.acquire(ctx); err != nil {
		return CalibrateResponse{}, err
	}
	fit, err := trace.Fit(req.Result, req.Fit)
	s.admission.Release()
	if err != nil {
		return CalibrateResponse{}, invalid(err)
	}
	p, err := s.profiles.store(req.Name, fit, req.TTL)
	if err != nil {
		return CalibrateResponse{}, invalid(err)
	}
	return CalibrateResponse{Profile: p.info, Classes: p.classes}, nil
}

// Profiles lists the live calibrated profiles, sorted by name.
func (s *Service) Profiles() []ProfileInfo {
	return s.profiles.list()
}
