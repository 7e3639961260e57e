package core

import (
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"jets/internal/dispatch"
	"jets/internal/hydra"
)

func TestJSONHandlerParse(t *testing.T) {
	in := `
# comment
{"id":"a","type":"mpi","nprocs":4,"cmd":"namd2","args":["-steps","10"],"wall_ms":5000}

{"type":"seq","cmd":"hostname"}
{"cmd":"date"}
`
	jobs, err := JSONHandler{}.Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("jobs=%d", len(jobs))
	}
	a := jobs[0]
	if a.Type != dispatch.MPI || a.Spec.NProcs != 4 ||
		a.Spec.WallLimit != 5*time.Second || len(a.Spec.Args) != 2 {
		t.Fatalf("job a %+v", a)
	}
	if jobs[1].Type != dispatch.Sequential || jobs[1].Spec.NProcs != 1 {
		t.Fatalf("job b %+v", jobs[1])
	}
	if jobs[2].Spec.JobID == "" || jobs[2].Spec.Cmd != "date" {
		t.Fatalf("job c %+v", jobs[2])
	}
}

func TestJSONHandlerErrors(t *testing.T) {
	for _, in := range []string{
		`{"cmd":"x","bogus":1}`,               // unknown field
		`{"type":"mpi","cmd":"x"}`,            // mpi without nprocs
		`{"type":"seq","cmd":"x","nprocs":3}`, // seq with nprocs
		`{"type":"weird","cmd":"x"}`,          // unknown type
		`{"type":"seq"}`,                      // missing cmd
		`{not json}`,                          // malformed
	} {
		if _, err := (JSONHandler{}).Parse(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

// TestJSONHandlerRefusesPriority: the queue is FIFO, so a line that asks for
// a priority is an error naming the line and the field, not a job that
// silently runs in submission order.
func TestJSONHandlerRefusesPriority(t *testing.T) {
	in := `{"cmd":"date"}
{"id":"urgent","cmd":"date","priority":9}`
	_, err := JSONHandler{}.Parse(strings.NewReader(in))
	if err == nil {
		t.Fatal("a line setting priority was accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "line 2") || !strings.Contains(msg, `"priority"`) {
		t.Fatalf("error %q does not name line 2 and the priority field", msg)
	}
}

func TestHandlerFor(t *testing.T) {
	if h, err := HandlerFor(""); err != nil || h.Name() != "lines" {
		t.Fatalf("default handler %v %v", h, err)
	}
	if h, err := HandlerFor("json"); err != nil || h.Name() != "json" {
		t.Fatalf("json handler %v %v", h, err)
	}
	if _, err := HandlerFor("xml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestRunHandlerEndToEnd(t *testing.T) {
	runner := hydra.NewFuncRunner()
	runner.Register("ok", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		return 0
	})
	eng, err := NewEngine(Options{LocalWorkers: 2, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	in := `{"type":"mpi","nprocs":2,"cmd":"ok"}
{"cmd":"ok"}`
	rep, err := eng.RunHandler(context.Background(), JSONHandler{}, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 0 || rep.Summary.Jobs != 2 {
		t.Fatalf("report %+v", rep.Summary)
	}
}
