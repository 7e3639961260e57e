package namd

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jets/internal/hydra"
	"jets/internal/mpi"
	"jets/internal/obs"
	"jets/internal/proto"
)

func testCfg(atoms int) Config {
	return Config{Atoms: atoms, Steps: 3, Temperature: 300, Seed: 42, WorkScale: 0.02}
}

func TestConfigValidate(t *testing.T) {
	cases := []Config{
		{Atoms: 0, Steps: 1, Temperature: 300},
		{Atoms: 10, Steps: 0, Temperature: 300},
		{Atoms: 10, Steps: 1, Temperature: 0},
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("accepted %+v", c)
		}
	}
	good := testCfg(100)
	if err := good.Validate(); err != nil {
		t.Errorf("rejected %+v: %v", good, err)
	}
}

func TestRunDeterministicAcrossRanks(t *testing.T) {
	var energies []float64
	var mu = make(chan float64, 8)
	err := mpi.RunLocal(4, func(c *mpi.Comm) error {
		res, state, err := Run(c, testCfg(400), nil, io.Discard)
		if err != nil {
			return err
		}
		if state == nil || state.Step != 3 {
			return fmt.Errorf("state %+v", state)
		}
		mu <- res.Energy
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	close(mu)
	for e := range mu {
		energies = append(energies, e)
	}
	if len(energies) != 4 {
		t.Fatalf("energies=%v", energies)
	}
	for _, e := range energies[1:] {
		if e != energies[0] {
			t.Fatalf("ranks disagree on energy: %v", energies)
		}
	}
	if math.IsNaN(energies[0]) || energies[0] == 0 {
		t.Fatalf("suspicious energy %v", energies[0])
	}
}

func TestRunReproducible(t *testing.T) {
	run := func() float64 {
		var out float64
		err := mpi.RunLocal(2, func(c *mpi.Comm) error {
			res, _, err := Run(c, testCfg(200), nil, io.Discard)
			if c.Rank() == 0 {
				out = res.Energy
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced %v then %v", a, b)
	}
}

func TestRestartDiverges(t *testing.T) {
	// Running from a restart state must give a different trajectory than a
	// cold start — the mechanism by which exchanged replicas take over.
	var cold, warm float64
	err := mpi.RunLocal(2, func(c *mpi.Comm) error {
		res, state, err := Run(c, testCfg(200), nil, io.Discard)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			cold = res.Energy
		}
		state.Coords[0] += 10 // a neighbour's different coordinates
		res2, _, err := Run(c, testCfg(200), state, io.Discard)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			warm = res2.Energy
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cold == warm {
		t.Fatalf("restart had no effect: %v", cold)
	}
}

func TestStdoutStatistics(t *testing.T) {
	var buf bytes.Buffer
	err := mpi.RunLocal(2, func(c *mpi.Comm) error {
		var w io.Writer = io.Discard
		if c.Rank() == 0 {
			w = &buf
		}
		_, _, err := Run(c, testCfg(100), nil, w)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "ENERGY:")
	if lines != 3 {
		t.Fatalf("expected 3 ENERGY lines, got %d:\n%s", lines, buf.String())
	}
}

func TestUnevenPartition(t *testing.T) {
	// Atom count not divisible by ranks: last rank absorbs the remainder.
	err := mpi.RunLocal(3, func(c *mpi.Comm) error {
		_, _, err := Run(c, testCfg(100), nil, io.Discard)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSampleWallTimeDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var bounds []time.Duration // 100, 110, ..., 160, then the clip
	for b := 100 * time.Second; b <= 160*time.Second; b += 10 * time.Second {
		bounds = append(bounds, b)
	}
	bounds = append(bounds, 166*time.Second)
	h := obs.NewHist("namd_wall_seconds", "sampled NAMD wall times", bounds)
	for i := 0; i < 5000; i++ {
		h.Observe(SampleWallTime(rng))
	}
	counts := h.Buckets(nil)
	if counts[0] != 0 {
		t.Fatalf("samples at or below 100s: %d", counts[0])
	}
	// Fig 11 shape: bulk in 100-120, visible tail beyond, none past ~165.
	bulk := counts[1] + counts[2]
	tail := counts[3] + counts[4] + counts[5] + counts[6] // 120-160
	if float64(bulk)/float64(h.Count()) < 0.55 {
		t.Fatalf("bulk fraction %.2f too small: %v", float64(bulk)/float64(h.Count()), counts)
	}
	if tail == 0 {
		t.Fatal("no tail samples")
	}
	if over := counts[len(counts)-1]; over != 0 {
		t.Fatalf("%d samples beyond the clip", over)
	}
}

func TestStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r1.state")
	st := &State{Step: 10, Energy: -1234.5, Temperature: 310, Coords: []float64{1, 2, 3}}
	if err := SaveState(path, st); err != nil {
		t.Fatal(err)
	}
	got, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 10 || got.Energy != -1234.5 || len(got.Coords) != 3 {
		t.Fatalf("got %+v", got)
	}
	if _, err := LoadState(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing state accepted")
	}
}

func TestParseArgs(t *testing.T) {
	cfg, in, out, err := parseArgs([]string{"-atoms", "128", "-steps", "5", "-temp", "310.5",
		"-seed", "9", "-in", "a.state", "-out", "b.state"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Atoms != 128 || cfg.Steps != 5 || cfg.Temperature != 310.5 || cfg.Seed != 9 {
		t.Fatalf("cfg %+v", cfg)
	}
	if in != "a.state" || out != "b.state" {
		t.Fatalf("in=%q out=%q", in, out)
	}
	for _, bad := range [][]string{
		{"-atoms"}, {"-atoms", "x"}, {"-bogus", "1"}, {"positional"},
	} {
		if _, _, _, err := parseArgs(bad); err == nil {
			t.Errorf("accepted %v", bad)
		}
	}
}

// TestAppThroughHydra runs namd2 through the full proxy launch path.
func TestAppThroughHydra(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "seg.state")
	runner := hydra.NewFuncRunner()
	RegisterApp(runner, 0.02)
	m, err := hydra.StartMPIExec(hydra.JobSpec{
		JobID: "namd-test", NProcs: 4, Cmd: AppName,
		Args: []string{"-atoms", "400", "-steps", "2", "-seed", "3", "-out", out},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	results := make(chan proto.Result, 4)
	for _, task := range m.ProxyTasks() {
		go func(task proto.Task) {
			results <- hydra.RunProxy(context.Background(), &task, runner, io.Discard)
		}(task)
	}
	for i := 0; i < 4; i++ {
		r := <-results
		if r.ExitCode != 0 {
			t.Fatalf("rank failed: %+v", r)
		}
	}
	if err := m.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	st, err := LoadState(out)
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 2 || len(st.Coords) != 4 {
		t.Fatalf("state %+v", st)
	}
}
