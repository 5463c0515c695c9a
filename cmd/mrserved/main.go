// Command mrserved serves the hadoop2perf performance model over HTTP: a
// long-lived prediction service with a bounded worker pool, one sharded
// result table (LRU cache plus in-flight deduplication), and a parallel what-if planner for capacity-planning
// and deadline queries.
//
// Endpoints (all bodies JSON; docs/API.md is the complete wire reference):
//
//	GET  /healthz      liveness probe
//	GET  /v1/metrics   request counts, cache hit rate, in-flight simulations
//	GET  /v1/profiles  live calibrated profiles (name, version, expiry)
//	POST /v1/predict   analytic model prediction; a "workflow" block swaps
//	                   the single job for a DAG of precedence-ordered stages
//	                   and adds a critical-path report
//	POST /v1/simulate  discrete-event simulation (median of seeds)
//	POST /v1/compare   model vs. simulator validation
//	POST /v1/plan      what-if search (nodes × block size × reducers × policy;
//	                   deadline queries bisect the node axis); workflow plans
//	                   sweep the cluster axis on the composed makespan
//	POST /v1/calibrate fit a named profile from a job-history trace; requests
//	                   reference it with "profile": "<name>"
//
// Runtime profiles of the serving process are exposed on a separate
// loopback-only listener (-pprof-addr, default 127.0.0.1:6060) so the
// public API surface never serves /debug/pprof/*; see PERFORMANCE.md.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"hadoop2perf/internal/obs"
	"hadoop2perf/internal/service"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.SetPrefix("mrserved: ")

	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "worker-pool size (model/simulator executions in flight)")
		cacheSize  = flag.Int("cache-size", service.DefaultCacheSize, "LRU cache entries")
		simReps    = flag.Int("sim-reps", service.DefaultSimReps, "default median-of-seeds repetitions")
		timeout    = flag.Duration("timeout", 0, "uniform per-request handling timeout (0 = per-kind defaults: 10s predict, 30s simulate/compare/plan/calibrate)")
		cacheTTL   = flag.Duration("cache-ttl", 0, "cache-entry freshness lifetime; expired entries are recomputed, or served stale under pool saturation (0 = never expire)")
		drainWait  = flag.Duration("drain-timeout", 15*time.Second, "grace period for in-flight requests after SIGTERM/SIGINT before forced exit")
		drainHold  = flag.Duration("drain-notice", time.Second, "how long the listener stays open (answering /readyz 503 draining, shedding POSTs) after SIGTERM/SIGINT before new connections are refused, so load balancers observe the flip")
		profileTTL = flag.Duration("profile-ttl", service.DefaultProfileTTL, "default calibrated-profile lifetime")
		pprofAddr  = flag.String("pprof-addr", "127.0.0.1:6060", "loopback /debug/pprof listener (empty = disabled)")
		logFormat  = flag.String("log-format", obs.LogFormatText, "structured access-log format: text or json")
		slowReq    = flag.Duration("slow-request-threshold", 10*time.Second, "latency past which a request logs at Warn with its per-stage breakdown")
	)
	flag.Parse()

	accessLog, err := obs.NewLogger(os.Stderr, *logFormat, slog.LevelInfo)
	if err != nil {
		log.Fatal(err)
	}

	svc := service.New(service.Options{
		Workers:    *workers,
		CacheSize:  *cacheSize,
		CacheTTL:   *cacheTTL,
		SimReps:    *simReps,
		ProfileTTL: *profileTTL,
	})
	if *pprofAddr != "" {
		// Profile the live process under real traffic, on its own listener:
		// profiles burn CPU and expose memory contents, so they never ride
		// the public API port (see PERFORMANCE.md for recipes).
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			// No write timeout: second-long CPU/trace profiles are the point.
			err := (&http.Server{Addr: *pprofAddr, Handler: pmux, ReadHeaderTimeout: 10 * time.Second}).ListenAndServe()
			log.Printf("pprof listener: %v", err)
		}()
		log.Printf("pprof on http://%s/debug/pprof/", *pprofAddr)
	}
	srv := &http.Server{
		Addr: *addr,
		Handler: service.NewHandler(svc, service.ServerConfig{
			Timeout:              *timeout,
			AccessLog:            accessLog,
			SlowRequestThreshold: *slowReq,
		}),
		ReadHeaderTimeout: 10 * time.Second,
		// WriteTimeout outlives the handler timeout so slow requests get a
		// 504 body instead of a severed connection. With per-kind timeouts
		// (-timeout 0) the longest default is the expensive 30s class.
		WriteTimeout: writeTimeout(*timeout),
		IdleTimeout:  2 * time.Minute,
	}

	done := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (workers=%d cache=%d sim-reps=%d timeout=%s)",
			*addr, *workers, *cacheSize, *simReps, *timeout)
		done <- srv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		// Drain: flip /readyz to 503 draining and shed new admissions so load
		// balancers stop routing here, then let in-flight requests finish
		// under the grace period. A second signal forces immediate exit.
		log.Printf("received %s, draining (grace %s)", sig, *drainWait)
		svc.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		go func() {
			sig := <-stop
			log.Printf("received %s during drain, forcing exit", sig)
			cancel()
		}()
		// Shutdown closes the listener immediately, so hold it open briefly
		// first: readiness probes on fresh connections must be able to see
		// the 503 draining flip (and POSTs the structured shed) before new
		// connections start being refused outright.
		select {
		case <-time.After(*drainHold):
		case <-ctx.Done():
		}
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		m := svc.Metrics()
		log.Printf("served %d predict / %d simulate / %d compare / %d plan; cache hit rate %.0f%%; shed %d",
			m.PredictRequests, m.SimulateRequests, m.CompareRequests, m.PlanRequests, 100*m.HitRate,
			m.Admission.ShedQueueFull+m.Admission.ShedDeadline+m.Admission.ShedDraining)
	case err := <-done:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}
}

// writeTimeout pads the handler timeout so timed-out requests receive their
// 504 body. A zero flag means per-kind handler timeouts, whose longest
// default is the expensive class.
func writeTimeout(handler time.Duration) time.Duration {
	if handler <= 0 {
		handler = 30 * time.Second
	}
	return handler + 5*time.Second
}
