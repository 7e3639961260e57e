package obshttp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"jets/internal/obs"
)

func TestHTTPEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("jets_http_total", "served").Add(9)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, "jets_http_total 9") {
		t.Errorf("/metrics = %d:\n%s", code, body)
	}

	code, body = get("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars = %d", code)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	jets, ok := vars["jets"].(map[string]any)
	if !ok {
		t.Fatalf("/debug/vars missing jets object: %s", body)
	}
	if v, _ := jets["jets_http_total"].(float64); v != 9 {
		t.Errorf("jets_http_total in vars = %v, want 9", jets["jets_http_total"])
	}
	if _, ok := vars["memstats"]; !ok {
		t.Errorf("/debug/vars missing standard expvar memstats")
	}

	code, body = get("/debug/pprof/goroutine?debug=1")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/goroutine = %d:\n%.200s", code, body)
	}
}

func TestHealthzEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func() (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Healthy by default, before any SetHealth call.
	if code, body := get(); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("default /healthz = %d %q, want 200 ok", code, body)
	}
	srv.SetHealth(func() error { return fmt.Errorf("no-workers: 2 jobs in flight and no worker for 11s") })
	code, body := get()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("unhealthy /healthz = %d, want 503", code)
	}
	if !strings.Contains(body, "no-workers") {
		t.Errorf("unhealthy body must carry the cause: %q", body)
	}
	// Recovery flips it back; nil check means healthy again.
	srv.SetHealth(nil)
	if code, _ := get(); code != 200 {
		t.Fatalf("recovered /healthz = %d, want 200", code)
	}
}

func TestHealthVarNilSafety(t *testing.T) {
	var hv *HealthVar
	if err := hv.Check(); err != nil {
		t.Errorf("nil HealthVar must report healthy, got %v", err)
	}
	hv = &HealthVar{}
	if err := hv.Check(); err != nil {
		t.Errorf("zero HealthVar must report healthy, got %v", err)
	}
	hv.Set(func() error { return fmt.Errorf("down") })
	if err := hv.Check(); err == nil {
		t.Error("set HealthVar must propagate the error")
	}
}
