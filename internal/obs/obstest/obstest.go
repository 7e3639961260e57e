// Package obstest helps tests of the obs endpoints: it runs a process out of
// descriptors so that an Accept fails with EMFILE, and it reads /healthz for
// a given health check.
package obstest

import (
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"syscall"
	"testing"
	"time"

	"jets/internal/obs"
)

// Healthz serves one GET /healthz through obs.HandlerWithHealth with check
// installed, and returns the status code and the body.
func Healthz(check func() error) (int, string) {
	var hv obs.HealthVar
	hv.Set(check)
	rec := httptest.NewRecorder()
	obs.HandlerWithHealth(nil, &hv).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	return rec.Code, rec.Body.String()
}

// ExhaustDescriptors makes addr's listener fail an Accept with EMFILE: it
// lowers this process's descriptor limit to 32 above what is open, dials
// addr until a dial fails with EMFILE, then frees one reserved descriptor and
// dials once more, so a connection waits in the backlog while the process
// has no descriptor to accept it with. It then closes every connection and
// restores the limit.
func ExhaustDescriptors(t testing.TB, addr string) {
	t.Helper()
	reserve, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open descriptors: %v", err)
	}
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &old); err != nil {
		t.Fatal(err)
	}
	low := old
	low.Cur = uint64(len(fds) + 32)
	if low.Cur > old.Cur {
		t.Skipf("descriptor limit %d is already below %d", old.Cur, low.Cur)
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &low); err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &old); err != nil {
			t.Errorf("restoring RLIMIT_NOFILE: %v", err)
		}
	}()
	for {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			if !errors.Is(err, syscall.EMFILE) {
				t.Fatalf("dial failed before the process ran out of descriptors: %v", err)
			}
			break
		}
		if len(conns) > 1000 {
			t.Fatal("1,000 connections and no EMFILE")
		}
		conns = append(conns, c)
	}
	reserve.Close()
	if c, err := net.Dial("tcp", addr); err == nil {
		conns = append(conns, c)
	}
	time.Sleep(20 * time.Millisecond) // let the listener try to accept it
}
