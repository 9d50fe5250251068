package main

import (
	"bytes"
	"os"
	"strconv"
	"sync/atomic"
	"time"
)

// rssMonitor samples the process's resident set size from /proc/self/statm
// every rssPeriod and keeps the peak since the last take. Unlike the
// process-wide high-water mark of getrusage it yields one peak per op, whose
// median is not thrown by a single op's garbage-collection timing.
type rssMonitor struct {
	peak atomic.Int64 // bytes
	stop chan struct{}
	done chan struct{}
}

const rssPeriod = 5 * time.Millisecond

// startRSS starts the sampler; stop it with close.
func startRSS() *rssMonitor {
	m := &rssMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	m.peak.Store(residentBytes())
	go func() {
		defer close(m.done)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.observe(residentBytes())
			}
		}
	}()
	return m
}

func (m *rssMonitor) observe(v int64) {
	for {
		p := m.peak.Load()
		if v <= p || m.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// take returns the peak in MiB since the previous take and restarts the
// window at the current size.
func (m *rssMonitor) take() float64 {
	cur := residentBytes()
	m.observe(cur)
	return float64(m.peak.Swap(cur)) / (1 << 20)
}

// close stops the sampler and waits for it to exit.
func (m *rssMonitor) close() {
	close(m.stop)
	<-m.done
}

// residentBytes reads the resident set size; 0 where /proc is unavailable.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
