package main

import (
	"io"
	"math"
	"net"
	"os/exec"
	"sync/atomic"
	"time"
)

// The box this benchmark runs on changes speed by 20-40% for minutes at a
// time (a shared 2-vCPU VM: wake-ups and system calls get slower when the
// host is busy, far more than plain arithmetic does). Rounds of one run
// agree with each other; runs a few minutes apart do not, and no amount of
// work per run averages that out. So every run also times two reference
// kernels that use only the standard library — none of the code under test —
// and reports its time-based metrics at the reference machine speed. The raw
// values and the index are kept in the results file.
//
// The kernels stand for the two things the workloads spend machine time on
// besides their own code: goroutines passing small messages over loopback
// TCP, and fork/exec.

const (
	speedSlice = 500 * time.Millisecond // per kernel, per sample
	// The kernels' rates on the calibration box in its usual state; an index
	// of 1.0 means "as fast as that".
	nominalFanPerSec  = 160000
	nominalForkPerSec = 800
)

// speedSample is one timing of both kernels.
type speedSample struct {
	FanPerSec  float64 `json:"fan_msgs_per_s"`
	ForkPerSec float64 `json:"forks_per_s"`
}

func sampleSpeed() speedSample {
	return speedSample{FanPerSec: fanKernel(speedSlice), ForkPerSec: forkKernel(speedSlice)}
}

// index is the sample's speed index: the geometric mean of the two kernels'
// rates relative to nominal.
func (s speedSample) index() float64 {
	if s.FanPerSec <= 0 || s.ForkPerSec <= 0 {
		return 1 // a kernel could not run; report unnormalised values
	}
	return math.Sqrt(s.FanPerSec / nominalFanPerSec * s.ForkPerSec / nominalForkPerSec)
}

// speedIndex is a run's machine-speed index: the geometric mean of its
// samples' indices.
func speedIndex(samples []speedSample) float64 {
	sum := 0.0
	for _, s := range samples {
		sum += math.Log(s.index())
	}
	return math.Exp(sum / float64(len(samples)))
}

// forkKernel forks and waits for /bin/true in a loop; forks per second.
func forkKernel(slice time.Duration) float64 {
	n, start := 0, time.Now()
	for time.Since(start) < slice {
		if exec.Command("/bin/true").Run() != nil {
			return 0
		}
		n++
	}
	return float64(n) / time.Since(start).Seconds()
}

// fanKernel is the skeleton of a dispatcher with nothing in it: a server
// goroutine per loopback connection echoing 48-byte messages, and a client
// that keeps 64 messages outstanding round-robin over 8 connections, with a
// reader goroutine per connection. Messages per second.
func fanKernel(slice time.Duration) float64 {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0
	}
	defer ln.Close()
	const conns, window, msg = 8, 64, 48
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed: the sample is over
			}
			go func() {
				defer c.Close()
				b := make([]byte, msg)
				for {
					if _, err := io.ReadFull(c, b); err != nil {
						return
					}
					if _, err := c.Write(b); err != nil {
						return
					}
				}
			}()
		}
	}()
	sem := make(chan struct{}, window) // one token per outstanding message
	var done atomic.Int64
	var cs []net.Conn
	defer func() {
		for _, c := range cs {
			c.Close() // ends both goroutines of the connection
		}
	}()
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return 0
		}
		cs = append(cs, c)
		go func() {
			b := make([]byte, msg)
			for {
				if _, err := io.ReadFull(c, b); err != nil {
					return
				}
				done.Add(1)
				<-sem
			}
		}()
	}
	b := make([]byte, msg)
	start := time.Now()
	for i := 0; time.Since(start) < slice; i++ {
		sem <- struct{}{}
		if _, err := cs[i%conns].Write(b); err != nil {
			return 0
		}
	}
	return float64(done.Load()) / time.Since(start).Seconds()
}
