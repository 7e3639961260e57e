package swiftlang

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// equivCommands covers every command token the testdata scripts emit; each
// records its invocation and succeeds.
var equivCommands = []string{"synthetic", "namd", "exchange", "mkinput", "process", "combine", "gen"}

type equivResult struct {
	invs  []string
	trace []string
	err   string
}

func runScriptMode(t *testing.T, src string, compile bool) equivResult {
	t.Helper()
	exec := NewFuncExecutor()
	for _, cmd := range equivCommands {
		exec.Register(cmd, func(ctx context.Context, inv AppInvocation) error { return nil })
	}
	var out bytes.Buffer
	wd := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := Config{
		Executor: exec, Stdout: &out, WorkDir: wd,
		Args: map[string]string{"njobs": "5", "nodes": "2", "waitms": "1", "nreps": "4", "rounds": "2", "n": "6"},
	}
	prog, err := Parse(src)
	if err == nil {
		if compile {
			err = Run(ctx, prog, cfg)
		} else {
			err = Interpret(ctx, prog, cfg)
		}
	}
	res := equivResult{}
	if err != nil {
		res.err = err.Error()
	}
	for _, inv := range exec.Calls() {
		s := fmt.Sprintf("%s|%d|%v|%s|%v", inv.App, inv.NProcs, inv.Tokens, inv.StdoutFile, inv.OutFiles)
		// Auto-mapped paths embed the per-run workdir and a mint order that
		// concurrency may permute; normalize both.
		s = strings.ReplaceAll(s, wd, "WORK")
		res.invs = append(res.invs, s)
	}
	sort.Strings(res.invs)
	for _, line := range strings.Split(out.String(), "\n") {
		if line != "" {
			res.trace = append(res.trace, line)
		}
	}
	sort.Strings(res.trace)
	return res
}

// TestCompiledEquivalence runs every testdata script under both the
// interpreter and the compiled runtime and requires identical invocation
// multisets, identical trace output, and (for err_ scripts) identical
// failure messages.
func TestCompiledEquivalence(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".swift") {
			continue
		}
		t.Run(name, func(t *testing.T) {
			src := loadScript(t, name)
			interp := runScriptMode(t, src, false)
			compiled := runScriptMode(t, src, true)
			if strings.HasPrefix(name, "err_") {
				if interp.err == "" || compiled.err == "" {
					t.Fatalf("expected both modes to fail: interp=%q compiled=%q", interp.err, compiled.err)
				}
				if interp.err != compiled.err {
					t.Fatalf("error mismatch:\ninterp:   %s\ncompiled: %s", interp.err, compiled.err)
				}
				return
			}
			if interp.err != "" || compiled.err != "" {
				t.Fatalf("unexpected failure: interp=%q compiled=%q", interp.err, compiled.err)
			}
			if !equalStrings(interp.invs, compiled.invs) {
				t.Fatalf("invocation sets differ:\ninterp (%d):   %v\ncompiled (%d): %v",
					len(interp.invs), interp.invs, len(compiled.invs), compiled.invs)
			}
			if !equalStrings(interp.trace, compiled.trace) {
				t.Fatalf("trace output differs:\ninterp:   %v\ncompiled: %v", interp.trace, compiled.trace)
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
