package core

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"jets/internal/dispatch"
	"jets/internal/hydra"
)

// Handler parses one job-source format. The paper (§5) structures the
// dispatcher input as "multiple scheduler components called handlers. Each
// handler has a specific input file format, which is basically a list of
// literal command lines." Two handlers ship here: the classic line format
// and a JSON-lines format carrying the full job specification.
type Handler interface {
	// Name identifies the format ("lines", "json").
	Name() string
	// Parse reads the complete job list.
	Parse(r io.Reader) ([]dispatch.Job, error)
}

// LineHandler parses the stand-alone format of §5.1 (MPI:/SEQ:/bare lines).
type LineHandler struct{}

// Name implements Handler.
func (LineHandler) Name() string { return "lines" }

// Parse implements Handler.
func (LineHandler) Parse(r io.Reader) ([]dispatch.Job, error) { return ParseInput(r) }

// JSONHandler parses one JSON object per line:
//
//	{"id":"j1","type":"mpi","nprocs":4,"cmd":"namd2","args":["-steps","10"],
//	 "env":["X=1"],"priority":2,"wall_ms":60000}
//
// Unknown fields are rejected so typos fail loudly.
type JSONHandler struct{}

// Name implements Handler.
func (JSONHandler) Name() string { return "json" }

type jsonJob struct {
	ID       string   `json:"id"`
	Type     string   `json:"type"` // "mpi" or "seq" (default)
	NProcs   int      `json:"nprocs"`
	Cmd      string   `json:"cmd"`
	Args     []string `json:"args"`
	Env      []string `json:"env"`
	Dir      string   `json:"dir"`
	Priority int      `json:"priority"`
	WallMS   int64    `json:"wall_ms"`
}

// Parse implements Handler.
func (JSONHandler) Parse(r io.Reader) ([]dispatch.Job, error) {
	var jobs []dispatch.Job
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		var j jsonJob
		if err := dec.Decode(&j); err != nil {
			return nil, fmt.Errorf("core: json line %d: %w", lineNo, err)
		}
		if j.Cmd == "" {
			return nil, fmt.Errorf("core: json line %d: missing cmd", lineNo)
		}
		id := j.ID
		if id == "" {
			id = fmt.Sprintf("job%d", lineNo)
		}
		job := dispatch.Job{
			Spec: hydra.JobSpec{
				JobID: id, Cmd: j.Cmd, Args: j.Args, Env: j.Env, Dir: j.Dir,
			},
			Priority: j.Priority,
		}
		if j.WallMS > 0 {
			job.Spec.WallLimit = time.Duration(j.WallMS) * time.Millisecond
		}
		switch strings.ToLower(j.Type) {
		case "mpi":
			job.Type = dispatch.MPI
			job.Spec.NProcs = j.NProcs
			if j.NProcs <= 0 {
				return nil, fmt.Errorf("core: json line %d: mpi job needs nprocs", lineNo)
			}
		case "", "seq", "sequential":
			job.Type = dispatch.Sequential
			job.Spec.NProcs = 1
			if j.NProcs > 1 {
				return nil, fmt.Errorf("core: json line %d: sequential job with nprocs %d", lineNo, j.NProcs)
			}
		default:
			return nil, fmt.Errorf("core: json line %d: unknown type %q", lineNo, j.Type)
		}
		jobs = append(jobs, job)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return jobs, nil
}

// HandlerFor selects a handler by format name.
func HandlerFor(format string) (Handler, error) {
	switch strings.ToLower(format) {
	case "", "lines":
		return LineHandler{}, nil
	case "json":
		return JSONHandler{}, nil
	}
	return nil, fmt.Errorf("core: unknown input format %q (want lines or json)", format)
}

// RunHandler parses r with the handler and runs the batch.
func (e *Engine) RunHandler(ctx context.Context, h Handler, r io.Reader) (*BatchReport, error) {
	jobs, err := h.Parse(r)
	if err != nil {
		return nil, fmt.Errorf("core: %s handler: %w", h.Name(), err)
	}
	return e.RunBatch(ctx, jobs)
}

// OutputRouter is the output-side counterpart of the input handlers: it
// fans task output chunks to per-task writers (the paper's application ->
// proxy -> mpiexec -> JETS -> file routing ends here). Chunks are written
// in arrival order per task, and a task whose writer fails — a client that
// disconnected mid-stream — is truncated: the error is recorded, the writer
// detached, and every later chunk for that task dropped instead of wedging
// the batch.
//
// HandleChunk matches Options.OnOutput, so a router plugs into an Engine
// directly.
type OutputRouter struct {
	mu        sync.Mutex
	writers   map[string]io.Writer
	truncated map[string]error
	// Fallback receives chunks for tasks with no attached writer; nil
	// discards them.
	Fallback io.Writer
}

// NewOutputRouter returns an empty router.
func NewOutputRouter() *OutputRouter {
	return &OutputRouter{
		writers:   map[string]io.Writer{},
		truncated: map[string]error{},
	}
}

// Attach routes a task's future chunks to w, clearing any truncation state
// from a previous attachment under the same ID.
func (r *OutputRouter) Attach(taskID string, w io.Writer) {
	r.mu.Lock()
	r.writers[taskID] = w
	delete(r.truncated, taskID)
	r.mu.Unlock()
}

// Detach stops routing a task; later chunks fall through to Fallback.
func (r *OutputRouter) Detach(taskID string) {
	r.mu.Lock()
	delete(r.writers, taskID)
	r.mu.Unlock()
}

// Truncated reports the writer error that cut a task's stream short, if any.
func (r *OutputRouter) Truncated(taskID string) (error, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	err, ok := r.truncated[taskID]
	return err, ok
}

// HandleChunk routes one decoded output chunk (Options.OnOutput shape).
// The router lock spans the write, so chunks for one task are written in
// exactly their arrival order even when callers race.
func (r *OutputRouter) HandleChunk(taskID, stream string, data []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, cut := r.truncated[taskID]; cut {
		return
	}
	w, ok := r.writers[taskID]
	if !ok {
		if r.Fallback != nil {
			r.Fallback.Write(data)
		}
		return
	}
	if _, err := w.Write(data); err != nil {
		r.truncated[taskID] = err
		delete(r.writers, taskID)
	}
}
