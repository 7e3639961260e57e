package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeRender(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("jets_widgets_total", "widgets produced")
	c.Add(3)
	c.Inc()
	g := reg.Gauge("jets_level", "current level")
	g.Set(7)
	g.Add(-2)
	reg.GaugeFunc("jets_live", "sampled", func() float64 { return 2.5 })
	reg.CounterFunc("jets_sampled_total", "sampled counter", func() int64 { return 42 })

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP jets_widgets_total widgets produced",
		"# TYPE jets_widgets_total counter",
		"jets_widgets_total 4",
		"jets_level 5",
		"jets_live 2.5",
		"jets_sampled_total 42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestLabeledGaugeGrouping(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFuncL("jets_shard_idle", `shard="1"`, "idle per shard", func() float64 { return 2 })
	reg.GaugeFuncL("jets_shard_idle", `shard="0"`, "idle per shard", func() float64 { return 1 })
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "# TYPE jets_shard_idle gauge") != 1 {
		t.Errorf("labeled series must share one TYPE header:\n%s", out)
	}
	if !strings.Contains(out, `jets_shard_idle{shard="0"} 1`) ||
		!strings.Contains(out, `jets_shard_idle{shard="1"} 2`) {
		t.Errorf("missing labeled serieses:\n%s", out)
	}
}

func TestHistBuckets(t *testing.T) {
	h := NewHist("jets_lat_seconds", "latency", []time.Duration{
		time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
	})
	reg := NewRegistry()
	reg.Register(h)
	h.Observe(500 * time.Microsecond) // <= 1ms
	h.Observe(time.Millisecond)       // le is inclusive: still the 1ms bucket
	h.Observe(2 * time.Millisecond)   // <= 10ms
	h.Observe(time.Second)            // +Inf
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`jets_lat_seconds_bucket{le="0.001"} 2`,
		`jets_lat_seconds_bucket{le="0.01"} 3`,
		`jets_lat_seconds_bucket{le="0.1"} 3`,
		`jets_lat_seconds_bucket{le="+Inf"} 4`,
		`jets_lat_seconds_count 4`,
		"# TYPE jets_lat_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	counts := h.Buckets(nil)
	if want := []int64{2, 1, 0, 1}; !slices.Equal(counts, want) {
		t.Errorf("Buckets = %v, want %v", counts, want)
	}
	if reused := h.Buckets(counts); &reused[0] != &counts[0] {
		t.Error("Buckets must reuse dst capacity")
	}
	if h.NumBuckets() != 4 {
		t.Errorf("NumBuckets = %d, want 4 (3 finite + Inf)", h.NumBuckets())
	}
}

func TestNilRegistryAndDetachedInstruments(t *testing.T) {
	var reg *Registry
	c := reg.Counter("jets_detached_total", "works unregistered")
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("detached counter must still count")
	}
	h := reg.Hist("jets_detached_seconds", "works unregistered", nil)
	h.Observe(time.Millisecond)
	if h.Count() != 1 {
		t.Fatal("detached histogram must still observe")
	}
	reg.Register(c) // nil receiver: no-op, no panic
}

func TestDuplicateRegistrationKeepsFirst(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("jets_dup_total", "first")
	a.Add(5)
	b := reg.Counter("jets_dup_total", "second")
	b.Add(100)
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "jets_dup_total 5") {
		t.Errorf("duplicate registration must keep the first instrument:\n%s", out.String())
	}
	if strings.Contains(out.String(), "jets_dup_total 100") {
		t.Errorf("second registration must not export:\n%s", out.String())
	}
}

func TestDuplicateRegistrationReturnsError(t *testing.T) {
	reg := NewRegistry()
	first := NewCounter("jets_dup_err_total", "first")
	if err := reg.Register(first); err != nil {
		t.Fatalf("first registration errored: %v", err)
	}
	second := NewCounter("jets_dup_err_total", "second")
	err := reg.Register(second, NewCounter("jets_dup_other_total", "fine"))
	if err == nil {
		t.Fatal("duplicate registration must return an error")
	}
	if !strings.Contains(err.Error(), "jets_dup_err_total") {
		t.Errorf("error must name the duplicate series: %v", err)
	}
	// The non-duplicate metric in the same call still registers, and lookup
	// keeps resolving to the first instrument.
	if reg.Lookup("jets_dup_other_total") == nil {
		t.Error("non-duplicate metric in the same Register call was dropped")
	}
	if got := reg.Lookup("jets_dup_err_total"); got != Metric(first) {
		t.Errorf("Lookup resolved to %v, want the first registration", got)
	}
}

func TestLookup(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("jets_lookup_total", "c")
	reg.GaugeFuncL("jets_lookup_idle", `shard="0"`, "g", func() float64 { return 1 })
	if m := reg.Lookup("jets_lookup_total"); m != Metric(c) {
		t.Errorf("Lookup(plain) = %v", m)
	}
	if m := reg.Lookup(`jets_lookup_idle{shard="0"}`); m == nil {
		t.Error("Lookup must resolve labeled serieses by full name")
	}
	if m := reg.Lookup("jets_absent_total"); m != nil {
		t.Errorf("Lookup(absent) = %v, want nil", m)
	}
	var nilReg *Registry
	if m := nilReg.Lookup("jets_lookup_total"); m != nil {
		t.Errorf("nil registry Lookup = %v, want nil", m)
	}
}

func TestHistQuantile(t *testing.T) {
	h := NewHist("jets_q_seconds", "q", []time.Duration{
		time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
	})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	// Ten samples in the first bucket: the median interpolates to the middle
	// of [0, 1ms].
	for i := 0; i < 10; i++ {
		h.Observe(500 * time.Microsecond)
	}
	if got, want := h.Quantile(0.5), 500*time.Microsecond; !within(got, want, 50*time.Microsecond) {
		t.Errorf("p50 = %v, want ~%v", got, want)
	}
	// The max rank lands at the first bucket's upper edge.
	if got, want := h.Quantile(0.999), time.Millisecond; !within(got, want, 50*time.Microsecond) {
		t.Errorf("p99.9 = %v, want ~%v", got, want)
	}
	// Push ten samples into (1ms, 10ms]: p75 now interpolates inside the
	// second bucket (rank 15 of 20 -> halfway through [1ms, 10ms]).
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Millisecond)
	}
	if got, want := h.Quantile(0.75), 5500*time.Microsecond; !within(got, want, 100*time.Microsecond) {
		t.Errorf("p75 = %v, want ~%v", got, want)
	}
}

func TestHistQuantileInfClampAndNilBounds(t *testing.T) {
	h := NewHist("jets_qinf_seconds", "q", []time.Duration{10 * time.Millisecond})
	h.Observe(time.Hour) // +Inf bucket
	if got, want := h.Quantile(0.99), 10*time.Millisecond; got != want {
		t.Errorf("+Inf sample must clamp to the highest finite bound: %v, want %v", got, want)
	}
	// A histogram with no finite bounds (empty, not nil, which selects the
	// default latency bounds) has only the +Inf bucket.
	nb := NewHist("jets_qnil_seconds", "q", []time.Duration{})
	nb.Observe(time.Second)
	if got := nb.Quantile(0.5); got != 0 {
		t.Errorf("no-bounds quantile = %v, want 0 (no finite edge to clamp to)", got)
	}
}

func within(got, want, tol time.Duration) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestConcurrentUpdatesRaceClean(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("jets_conc_total", "c")
	g := reg.Gauge("jets_conc_level", "g")
	h := reg.Hist("jets_conc_seconds", "h", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Set(int64(j))
				h.Observe(time.Duration(j) * time.Microsecond)
			}
		}(i)
	}
	// Scrape concurrently with the updates.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b strings.Builder
			reg.WritePrometheus(&b)
			reg.Snapshot()
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("hist count = %d, want 8000", h.Count())
	}
}

func TestHTTPEndpoint(t *testing.T) {
	reg := NewRegistry()
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
	reg := NewRegistry()
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
