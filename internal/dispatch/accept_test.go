package dispatch

import (
	"context"
	"errors"
	"net"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"jets/internal/hydra"
	"jets/internal/obs"
	"jets/internal/worker"
)

// exhaustDescriptors makes addr's listener fail an Accept with EMFILE. It
// lowers this process's descriptor limit to 32 above what is open, dials
// addr until a dial fails with EMFILE, then frees one reserved descriptor
// and dials once more, so a connection waits in the backlog while the
// process has no descriptor to accept it with. It then closes every
// connection and restores the limit.
func exhaustDescriptors(t *testing.T, addr string) {
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

// TestAcceptSurvivesEMFILE: one Accept error does not stop the worker port.
// After the process ran out of descriptors and got them back, a worker that
// dials late registers within 2 s.
func TestAcceptSurvivesEMFILE(t *testing.T) {
	d := New(Config{})
	addr, err := d.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	before := obs.AcceptErrors.Value()
	exhaustDescriptors(t, addr)
	if obs.AcceptErrors.Value() == before {
		t.Fatal("no Accept error was provoked")
	}

	w, err := worker.New(worker.Config{ID: "late", DispatcherAddr: addr, Runner: hydra.NewFuncRunner()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.Run(ctx)
	}()
	for deadline := time.Now().Add(2 * time.Second); d.Workers() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a worker dialing after the descriptors came back did not register within 2 s")
		}
	}
}
