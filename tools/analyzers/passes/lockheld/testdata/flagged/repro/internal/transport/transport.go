// Package transport holds the flagged lock-discipline shapes: every
// function below parks the goroutine while a mutex is held (or parks a
// condition variable without one).
package transport

import (
	"net"
	"sync"
	"time"

	"repro/internal/netem"
)

type sender struct {
	mu    sync.Mutex
	state sync.RWMutex
	pacer *netem.Pacer
	conn  net.Conn
	ch    chan []byte
	buf   [][]byte
}

// PaceLocked holds the buffer lock across the pacing sleep — the exact
// head-of-line blocking shape of the live path.
func (s *sender) PaceLocked(b []byte) {
	s.mu.Lock()
	s.buf = append(s.buf, b)
	s.pacer.Wait(len(b)) // want `s\.mu held across blocking call to netem\.Pacer\.Wait`
	s.mu.Unlock()
}

// WriteLocked performs network I/O with the lock held to the end of the
// function by the deferred unlock.
func (s *sender) WriteLocked(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.conn.Write(b) // want `s\.mu held across blocking call to net\.Conn\.Write`
	return err
}

// SendLocked parks on a channel send under the lock.
func (s *sender) SendLocked(b []byte) {
	s.mu.Lock()
	s.ch <- b // want `s\.mu held across blocking channel send`
	s.mu.Unlock()
}

// RecvLocked parks on a channel receive under the read lock.
func (s *sender) RecvLocked() []byte {
	s.state.RLock()
	defer s.state.RUnlock()
	return <-s.ch // want `s\.state held across blocking channel receive`
}

// SleepLocked holds the lock over a plain sleep.
func (s *sender) SleepLocked() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `s\.mu held across blocking call to time\.Sleep`
	s.mu.Unlock()
}

// SelectLocked parks on a bare select under the lock. Only the select
// header is the park point: the chosen clause's receive runs when the
// channel is already ready and is not reported again.
func (s *sender) SelectLocked() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `s\.mu held across blocking select with no default clause`
	case b := <-s.ch:
		s.buf = append(s.buf, b)
	}
}

// flush is a module-local callee whose body blocks; its blocking-ness
// reaches FlushLocked through the bottom-up summary.
func (s *sender) flush() error {
	_, err := s.conn.Write(nil)
	return err
}

// FlushLocked blocks through a module-local call.
func (s *sender) FlushLocked() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flush() // want `s\.mu held across blocking call to flush`
}

// DoubleLocked reports both held locks, sorted.
func (s *sender) DoubleLocked() {
	s.mu.Lock()
	s.state.Lock()
	time.Sleep(time.Millisecond) // want `s\.mu, s\.state held across blocking call to time\.Sleep`
	s.state.Unlock()
	s.mu.Unlock()
}

// WaitNoLock parks the condition variable without holding its lock:
// Wait's contract requires c.L held, so this panics at runtime.
func (s *sender) WaitNoLock(c *sync.Cond) {
	c.Wait() // want `sync\.Cond\.Wait called without holding any lock`
}

// ReplyLocked reads a datagram and answers its sender with the lock
// held, through the netip.AddrPort forms of the UDP calls.
func (s *sender) ReplyLocked(c *net.UDPConn, b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, from, _ := c.ReadFromUDPAddrPort(b) // want `s\.mu held across blocking call to net\.UDPConn\.ReadFromUDPAddrPort`
	c.WriteToUDPAddrPort(b, from)          // want `s\.mu held across blocking call to net\.UDPConn\.WriteToUDPAddrPort`
}
