package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// TestResetAfterByeKeepsDeliveredData pins the teardown the tree barrier
// leans on (DESIGN.md, "Gang-launch fast path", known limits): a child closes
// the socket its parent is about to say bye on, and a dialer that closes with
// that bye unread sends RST, not FIN. Everything the dialer's kernel had
// handed to the accepting rank's by then must still come out, whether the
// rank's reader had taken it off the socket or not, and only after the last
// of it may a receive report the peer gone.
//
// Rank 0 plays the dialer by hand on a raw socket: hello, 2,000 frames of
// 64 KiB, then wait for the bye, leave it unread, close.
func TestResetAfterByeKeepsDeliveredData(t *testing.T) {
	const msgs, size, tag = 2000, 64 << 10, 5
	written := make(chan struct{})
	byeSent := make(chan struct{})
	err := RunTCP(2, func(c *Comm) error {
		tr := c.tr.(*tcpTransport)
		if c.Rank() == 1 {
			go func() {
				// Close, as far as the bye, while the reader may be behind.
				<-written
				tr.mu.Lock()
				conns := tr.conns
				tr.mu.Unlock()
				if len(conns) == 1 && conns[0].accepted {
					conns[0].bye()
				}
				close(byeSent)
			}()
			for i := 0; i < msgs; i++ {
				m, err := c.Recv(0, tag)
				if err != nil {
					return fmt.Errorf("message %d of %d: %w", i, msgs, err)
				}
				if len(m.Data) != size || binary.BigEndian.Uint32(m.Data) != uint32(i) || m.Data[size-1] != byte(i) {
					return fmt.Errorf("message %d: %d bytes, starts %x", i, len(m.Data), m.Data[:4])
				}
			}
			if _, err := c.Recv(0, tag); !errors.Is(err, ErrPeerClosed) {
				return fmt.Errorf("receive after the last delivered message: %v, want ErrPeerClosed", err)
			}
			return nil
		}

		addr, err := tr.pc.Get(pmiAddrKey(1))
		if err != nil {
			return err
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		frame := make([]byte, 8+size)
		binary.BigEndian.PutUint32(frame[0:4], size)
		binary.BigEndian.PutUint32(frame[4:8], tag)
		for i := 0; i < msgs; i++ {
			binary.BigEndian.PutUint32(frame[8:], uint32(i))
			frame[len(frame)-1] = byte(i)
			out := frame
			if i == 0 {
				out = append(binary.BigEndian.AppendUint32(nil, 0), frame...) // hello: rank 0
			}
			if _, err := conn.Write(out); err != nil {
				return fmt.Errorf("write %d: %w", i, err)
			}
		}
		close(written)
		<-byeSent
		// Bytes still in this socket's send queue would be dropped by the
		// reset (the known limit); the claim is about delivered ones.
		raw, err := conn.(*net.TCPConn).SyscallConn()
		if err != nil {
			return err
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			var unsent int32 // SIOCOUTQ writes a C int
			var unread int
			var peek [8]byte
			var perr error
			raw.Control(func(fd uintptr) {
				syscall.Syscall(syscall.SYS_IOCTL, fd, syscall.TIOCOUTQ, uintptr(unsafe.Pointer(&unsent)))
				unread, _, perr = syscall.Recvfrom(int(fd), peek[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
			})
			if unsent == 0 && unread == len(peek) {
				if binary.BigEndian.Uint32(peek[:4]) != byeLen {
					return fmt.Errorf("unread bytes %x are not a bye", peek)
				}
				return nil // the deferred Close finds the bye unread: RST
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%d bytes unsent, %d of a bye unread (%v)", unsent, unread, perr)
			}
			time.Sleep(time.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
