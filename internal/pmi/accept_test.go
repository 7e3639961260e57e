package pmi

import (
	"testing"
	"time"

	"jets/internal/obs"
	"jets/internal/obs/obstest"
)

// TestAcceptSurvivesEMFILE: one Accept error does not stop a PMI endpoint.
// After the process ran out of descriptors and got them back, a rank that
// dials late completes its init handshake within 2 s.
func TestAcceptSurvivesEMFILE(t *testing.T) {
	_, addr := startServer(t, 1)
	before := obs.AcceptErrors.Value()
	obstest.ExhaustDescriptors(t, addr)
	if obs.AcceptErrors.Value() == before {
		t.Fatal("no Accept error was provoked")
	}
	done := make(chan error, 1)
	go func() {
		c, err := Dial(addr, 0)
		if err == nil {
			err = c.Finalize()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a rank dialing after the descriptors came back was not served within 2 s")
	}
}
