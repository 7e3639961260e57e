package obs

import (
	"errors"
	"net"
	"time"
)

// Accept's backoff after a failed Accept: 5 ms, doubling to 1 s, as
// net/http.Server.Serve waits.
const (
	acceptMinBackoff = 5 * time.Millisecond
	acceptMaxBackoff = time.Second
)

// AcceptErrors counts the Accept errors the product's listeners (the
// dispatcher's worker port, the PMI endpoint) waited out. Their owners
// register it.
var AcceptErrors = NewCounter("jets_accept_errors_total", "listener Accept errors retried after a backoff (descriptor exhaustion, a connection aborted before it was accepted)")

// Accept waits for ln's next connection. An error other than ln being
// closed — EMFILE while the process is out of descriptors, a connection
// aborted in the backlog — is counted in AcceptErrors and retried after a
// backoff, so one bad moment does not stop a listener for good. Accept
// returns an error only once ln is closed.
func Accept(ln net.Listener) (net.Conn, error) {
	var delay time.Duration
	for {
		conn, err := ln.Accept()
		if err == nil || errors.Is(err, net.ErrClosed) {
			return conn, err
		}
		AcceptErrors.Inc()
		delay = min(max(2*delay, acceptMinBackoff), acceptMaxBackoff)
		time.Sleep(delay)
	}
}
