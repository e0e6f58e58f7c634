// Package locktest exercises the lockhold analyzer within one package:
// channel ops, blocking stdlib calls, hotpath calls, and transitively
// blocking module calls inside lexical mutex regions.
package locktest

import (
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"
)

type state struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	data map[string]int
	ch   chan int
}

func badSend(s *state) {
	s.mu.Lock()
	s.ch <- 1 // want `performs a channel send while holding s\.mu`
	s.mu.Unlock()
}

func badRecv(s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	<-s.ch // want `performs a channel receive while holding s\.mu`
}

func badSelect(s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `selects on channels while holding s\.mu`
	case <-s.ch: // want `performs a channel receive while holding s\.mu`
	case s.ch <- 1: // want `performs a channel send while holding s\.mu`
	}
}

// badNonBlockingSelectBody: a default clause makes the select itself
// non-blocking, but not the work its clauses do.
func badNonBlockingSelectBody(s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case v := <-s.ch:
		s.ch <- v // want `performs a channel send while holding s\.mu`
	case s.ch <- waits(s): // want `calls waits, which may block \(a channel receive\) while holding s\.mu`
	default:
	}
}

func badRange(s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for range s.ch { // want `ranges over a channel while holding s\.mu`
	}
}

func badOS(s *state) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := os.Create("x") // want `calls os\.Create while holding s\.mu`
	return err
}

func badNet(s *state, addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	net.Dial("tcp", addr) // want `calls net\.Dial while holding s\.mu`
}

func badIOPump(s *state, src io.Reader) {
	s.mu.Lock()
	defer s.mu.Unlock()
	io.Copy(io.Discard, src) // want `calls io\.Copy while holding s\.mu`
}

func badSleep(s *state) {
	s.rw.RLock()
	time.Sleep(time.Millisecond) // want `sleeps while holding s\.rw`
	s.rw.RUnlock()
}

//p2p:hotpath
func decide(v int) int { return v + 1 }

func badHot(s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = decide(1) // want `calls //p2p:hotpath function decide`
}

func waits(s *state) int {
	return <-s.ch
}

func badPropagated(s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	waits(s) // want `calls waits, which may block \(a channel receive\) while holding s\.mu`
}

// goodStaged stages the blocking work before the Lock and applies the
// result under it.
func goodStaged(s *state) {
	v := waits(s)
	s.mu.Lock()
	s.data["k"] = v
	s.mu.Unlock()
}

// goodAfterUnlock: the region ends at the matching Unlock in the same
// statement list; the send after it is free.
func goodAfterUnlock(s *state) {
	s.mu.Lock()
	s.data["k"] = 1
	s.mu.Unlock()
	s.ch <- 1
}

// goodNonBlockingSelect: a select with a default clause never blocks.
func goodNonBlockingSelect(s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- 1:
	case <-s.ch:
	default:
	}
}

// signal is a non-blocking send; calling it under a lock is allowed.
func signal(s *state) {
	select {
	case s.ch <- 1:
	default:
	}
}

func goodSignal(s *state) {
	s.mu.Lock()
	signal(s)
	s.mu.Unlock()
}

// goodPureNet: parse-only net functions cannot block.
func goodPureNet(s *state) net.IP {
	s.mu.Lock()
	defer s.mu.Unlock()
	return net.ParseIP("192.0.2.1")
}

// goodStdlibMethod: methods on stdlib values stay allowed.
func goodStdlibMethod(s *state) string {
	var b strings.Builder
	s.mu.Lock()
	defer s.mu.Unlock()
	b.WriteString("x")
	return b.String()
}

// goodClosure: a func literal's body runs on the callee's schedule, not
// under this lock.
func goodClosure(s *state) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	return func() { s.ch <- 1 }
}
