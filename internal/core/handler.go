package core

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
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
