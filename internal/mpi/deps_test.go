package mpi

import (
	"os/exec"
	"strings"
	"testing"
)

// TestRankLinksNoHTTPStack: a forked rank links this library and the PMI
// client and pays at start for every package they pull in. Neither may
// depend on the HTTP stack, TLS or expvar, which only the binaries' metrics
// endpoint (package obshttp) uses.
func TestRankLinksNoHTTPStack(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command: %v", err)
	}
	out, err := exec.Command(gobin, "list", "-deps", "jets/internal/mpi", "jets/internal/pmi").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		switch pkg {
		case "net/http", "crypto/tls", "expvar":
			t.Errorf("internal/mpi or internal/pmi depends on %s", pkg)
		}
	}
}
