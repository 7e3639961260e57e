package obs

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"
)

// Accept's backoff after a failed Accept: 5 ms, doubling to 1 s, as
// net/http.Server.Serve waits.
const (
	acceptMinBackoff = 5 * time.Millisecond
	acceptMaxBackoff = time.Second
)

// AcceptErrors counts the Accept errors the product's listeners (the
// dispatcher's worker port, the PMI endpoint) waited out. Their owners
// register it.
var AcceptErrors = NewCounter("jets_accept_errors_total", "listener Accept errors retried after a backoff (descriptor exhaustion, a connection aborted before it was accepted)")

// Accept waits for ln's next connection. An error other than ln being
// closed — EMFILE while the process is out of descriptors, a connection
// aborted in the backlog — is counted in AcceptErrors and retried after a
// backoff, so one bad moment does not stop a listener for good. Accept
// returns an error only once ln is closed.
func Accept(ln net.Listener) (net.Conn, error) {
	var delay time.Duration
	for {
		conn, err := ln.Accept()
		if err == nil || errors.Is(err, net.ErrClosed) {
			return conn, err
		}
		AcceptErrors.Inc()
		delay = min(max(2*delay, acceptMinBackoff), acceptMaxBackoff)
		time.Sleep(delay)
	}
}

// HealthVar is an atomically swappable health check backing a /healthz
// endpoint: nil (or an unset function) means healthy, a non-nil error means
// the process should be reported unhealthy (HTTP 503). The alert engine
// wires its critical-rule state here; anything else with a notion of "ready"
// (a worker's dispatcher connection) can too.
type HealthVar struct {
	fn atomic.Value // of func() error
}

// Set installs (or replaces) the health check.
func (h *HealthVar) Set(fn func() error) {
	if fn == nil {
		fn = func() error { return nil }
	}
	h.fn.Store(fn)
}

// Check runs the installed health check; nil when none is installed.
func (h *HealthVar) Check() error {
	if h == nil {
		return nil
	}
	if fn, ok := h.fn.Load().(func() error); ok {
		return fn()
	}
	return nil
}

// Server is the observability HTTP endpoint: /metrics (Prometheus text),
// /debug/vars (expvar plus the registry snapshot), /debug/pprof/*, and
// /healthz (200 until SetHealth installs a check that returns an error).
type Server struct {
	ln     net.Listener
	srv    *http.Server
	health *HealthVar
}

// Serve binds addr (use "127.0.0.1:0" for an ephemeral port) and serves the
// registry. It returns immediately; Close shuts the listener down.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	health := &HealthVar{}
	srv := &http.Server{Handler: HandlerWithHealth(reg, health), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv, health: health}, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetHealth installs the /healthz check (see HealthVar).
func (s *Server) SetHealth(fn func() error) { s.health.Set(fn) }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }

// Handler builds the endpoint mux, for embedding in an existing server.
// /healthz always reports healthy; use HandlerWithHealth to wire a check.
func Handler(reg *Registry) http.Handler { return HandlerWithHealth(reg, nil) }

// HandlerWithHealth builds the endpoint mux with /healthz backed by the
// given HealthVar (nil behaves as always-healthy).
func HandlerWithHealth(reg *Registry, health *HealthVar) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := health.Check(); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "unhealthy: %v\n", err)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	// Hand-rolled /debug/vars instead of expvar.Handler so the registry
	// snapshot appears under "jets" without a process-global expvar.Publish
	// (which panics on re-registration when tests run several endpoints).
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\n")
		first := true
		expvar.Do(func(kv expvar.KeyValue) {
			if !first {
				fmt.Fprintf(w, ",\n")
			}
			first = false
			fmt.Fprintf(w, "%q: %s", kv.Key, kv.Value)
		})
		if reg != nil {
			snap, err := json.Marshal(reg.Snapshot())
			if err == nil {
				if !first {
					fmt.Fprintf(w, ",\n")
				}
				first = false
				fmt.Fprintf(w, "%q: %s", "jets", snap)
			}
		}
		fmt.Fprintf(w, "\n}\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
