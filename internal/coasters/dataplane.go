package coasters

// The data plane: a proto endpoint carrying the bulk traffic that the
// newline-JSON RPC channel is wrong for — stage payloads in and task output
// out. A data client performs the same register handshake as a worker; stage
// payloads travel as raw length-prefixed bytes (no base64) and output frames
// produced by workers are forwarded to subscribers without a decode/re-encode
// cycle: the dispatcher's OnOutputFrame hook hands the service the raw frame,
// each subscriber's outbox (proto.Outbox) takes a reference, and whoever
// drains it puts the original bytes on the wire before releasing it.
//
// A slow client never stalls a worker's reader: each outbox is bounded at
// 1,024 frames and overflow drops the frame (releasing its reference and
// counting it) rather than blocking the relay. A client costs one goroutine
// at rest, its reader; a drain goroutine exists only while its outbox holds
// frames.

import (
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"jets/internal/proto"
)

// subscriber is one data-plane connection receiving relayed output.
type subscriber struct {
	codec *proto.Codec
	out   *proto.Outbox

	// dropWarned rate-limits the slow-subscriber diagnostic to one warning
	// per connection: the first dropped frame logs, the rest only count.
	dropWarned atomic.Bool
}

// relayOutput is the dispatcher's OnOutputFrame hook: fan the borrowed
// frame out to every subscriber's outbox (each taking its own reference).
func (s *Service) relayOutput(f *proto.Frame) {
	s.subMu.RLock()
	for sub := range s.subs {
		if !sub.out.PushRaw(f) {
			s.droppedOut.Add(1)
			if sub.dropWarned.CompareAndSwap(false, true) {
				log.Printf("coasters: data-plane subscriber %s is not keeping up; dropping output frames (see jets_dataplane_dropped_outputs_total)",
					sub.codec.RemoteAddr())
			}
		}
	}
	s.subMu.RUnlock()
}

// DroppedOutputs reports output frames dropped because a subscriber's
// outbox was full (slow client) or closed.
func (s *Service) DroppedOutputs() int64 { return s.droppedOut.Load() }

// ServeData starts the data-plane listener; returns its address.
func (s *Service) ServeData(addr string) (string, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serveData(proto.NewCodec(conn))
		}
	}()
	s.mu.Lock()
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	return ln.Addr().String(), nil
}

func (s *Service) serveData(codec *proto.Codec) {
	defer codec.Close()
	first, err := codec.Recv()
	if err != nil {
		return // includes a peer speaking another format: just disconnect
	}
	if first.Kind != proto.KindRegister {
		codec.Send(&proto.Envelope{Kind: proto.KindError, Error: "expected register"})
		return
	}
	if err := codec.Send(&proto.Envelope{Kind: proto.KindRegistered}); err != nil {
		return
	}

	sub := &subscriber{codec: codec, out: proto.NewOutbox(codec, 1024)}
	s.subMu.Lock()
	s.subs[sub] = struct{}{}
	s.subMu.Unlock()
	defer func() {
		s.subMu.Lock()
		delete(s.subs, sub)
		s.subMu.Unlock()
		sub.out.Close()
	}()

	for {
		f, err := codec.RecvFrame()
		if err != nil {
			return
		}
		if f.Kind() == proto.KindStage {
			if env, derr := f.Envelope(); derr == nil && env.Stage != nil {
				s.mu.Lock()
				s.staged[env.Stage.Name] = append([]byte(nil), env.Stage.Data...)
				s.stagedFiles.Add(1)
				s.stagedBytes.Add(int64(len(env.Stage.Data)))
				s.mu.Unlock()
				// Relay the original frame bytes to the worker pool; the
				// decoded copy above is the service-side store.
				s.d.StageFrame(f)
				codec.Send(&proto.Envelope{Kind: proto.KindStaged, Stage: &proto.Stage{Name: env.Stage.Name}})
			}
		}
		f.Release()
	}
}

// OutputChunk is one relayed piece of task output delivered to a data
// client.
type OutputChunk struct {
	TaskID string
	Stream string
	Data   []byte
}

// DataClient subscribes to a service's data plane: it stages files through
// the binary channel and receives relayed task output.
type DataClient struct {
	codec   *proto.Codec
	outputs chan OutputChunk

	mu     sync.Mutex
	acks   map[string][]chan struct{}
	closed bool
}

// DialData connects to a ServeData endpoint and performs the register
// handshake.
func DialData(addr string) (*DataClient, error) {
	codec, err := proto.Dial(addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	if err := codec.Send(&proto.Envelope{
		Kind:     proto.KindRegister,
		Register: &proto.Register{WorkerID: "data-client"},
	}); err != nil {
		codec.Close()
		return nil, err
	}
	ack, err := codec.Recv()
	if err != nil || ack.Kind != proto.KindRegistered {
		codec.Close()
		return nil, fmt.Errorf("coasters: data handshake failed: %v", err)
	}
	c := &DataClient{
		codec:   codec,
		outputs: make(chan OutputChunk, 1024),
		acks:    map[string][]chan struct{}{},
	}
	go c.readLoop()
	return c, nil
}

func (c *DataClient) readLoop() {
	for {
		env, err := c.codec.Recv()
		if err != nil {
			c.mu.Lock()
			c.closed = true
			for name, chans := range c.acks {
				for _, ch := range chans {
					close(ch)
				}
				delete(c.acks, name)
			}
			c.mu.Unlock()
			close(c.outputs)
			return
		}
		switch env.Kind {
		case proto.KindOutput:
			if env.Output != nil {
				// Deliberately blocking: a client that does not drain
				// Outputs applies backpressure HERE, on its own socket —
				// the service side drops instead of blocking.
				c.outputs <- OutputChunk{TaskID: env.Output.TaskID, Stream: env.Output.Stream, Data: env.Output.Data}
			}
		case proto.KindStaged:
			if env.Stage != nil {
				c.mu.Lock()
				if chans := c.acks[env.Stage.Name]; len(chans) > 0 {
					close(chans[0])
					c.acks[env.Stage.Name] = chans[1:]
				}
				c.mu.Unlock()
			}
		}
	}
}

// Stage sends a file through the data plane and waits for the service's
// staged ack.
func (c *DataClient) Stage(name string, data []byte, timeout time.Duration) error {
	ch := make(chan struct{})
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("coasters: data client closed")
	}
	c.acks[name] = append(c.acks[name], ch)
	c.mu.Unlock()
	if err := c.codec.Send(&proto.Envelope{
		Kind:  proto.KindStage,
		Stage: &proto.Stage{Name: name, Data: data},
	}); err != nil {
		return err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-ch:
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return fmt.Errorf("coasters: connection lost before staged ack")
		}
		return nil
	case <-t.C:
		return fmt.Errorf("coasters: staged ack for %q timed out", name)
	}
}

// Outputs delivers relayed task output; the channel closes when the
// connection drops.
func (c *DataClient) Outputs() <-chan OutputChunk { return c.outputs }

// Close drops the data-plane connection.
func (c *DataClient) Close() error { return c.codec.Close() }
