package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/southbound"
)

// uplink plays the satellites' end of the southbound: every satellite
// registers with its own MsgHello over one of a few shared connections
// (the controller maps each hello's SatID to the connection it arrived
// on), applies each slot delta or snapshot to that satellite's installed
// peer set, and acks. In deployment this work runs on the satellites, so
// the uplink keeps it off the controller's cores as far as one process
// allows: a handful of connections instead of one agent per satellite.
type uplink struct {
	conns   []*uplinkConn
	numSats int
	home    []int // satellite → connection index; driver goroutine only

	// registered carries the SatID of every registration once the
	// controller's OnRegister hook has run (see newControlLoop).
	registered <-chan uint32

	mu sync.Mutex
	//tinyleo:guardedby mu
	installed [][]uint32 // satellite → installed ISL peers, ascending
	//tinyleo:guardedby mu
	wiped []bool // rebooted and not re-synced by a snapshot since

	timed     bool // measure decode+apply time (traced runs)
	cmds      atomic.Int64
	bytes     atomic.Int64
	installNs atomic.Int64
	bad       atomic.Int64 // commands that failed to decode

	wg sync.WaitGroup
}

type uplinkConn struct {
	conn net.Conn
	wmu  sync.Mutex // serializes frames from the read loop and the driver
}

// helloTimeout bounds the wait for a registration.
const helloTimeout = 5 * time.Second

// dialUplink opens nconn connections to the controller and registers
// satellites 0..numSats-1 round robin across them. registered must
// receive each registration's SatID after the controller has handled it.
func dialUplink(addr string, nconn, numSats int, timed bool, registered <-chan uint32) (*uplink, error) {
	u := &uplink{
		numSats:    numSats,
		home:       make([]int, numSats),
		registered: registered,
		installed:  make([][]uint32, numSats),
		wiped:      make([]bool, numSats),
		timed:      timed,
	}
	for i := 0; i < nconn; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			u.close()
			return nil, fmt.Errorf("uplink dial: %w", err)
		}
		c := &uplinkConn{conn: conn}
		u.conns = append(u.conns, c)
		u.wg.Add(1)
		go u.readLoop(c)
	}
	for sat := 0; sat < numSats; sat++ {
		u.home[sat] = sat % nconn
		if err := u.hello(sat); err != nil {
			u.close()
			return nil, err
		}
	}
	for i := 0; i < numSats; i++ {
		if err := u.awaitHello(); err != nil {
			u.close()
			return nil, err
		}
	}
	return u, nil
}

func (u *uplink) hello(sat int) error {
	c := u.conns[u.home[sat]]
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return southbound.WriteMessage(c.conn, &southbound.Message{Type: southbound.MsgHello, SatID: uint32(sat)})
}

func (u *uplink) awaitHello() error {
	select {
	case <-u.registered:
		return nil
	case <-time.After(helloTimeout):
		return errors.New("uplink: registration timed out")
	}
}

// reregister registers sat again. A handover moves it to the next
// connection with its installed state kept; a reboot wipes the state
// first. Returns once the controller has handled the registration.
func (u *uplink) reregister(sat int, reboot bool) error {
	if reboot {
		u.mu.Lock()
		u.installed[sat] = nil
		u.wiped[sat] = true
		u.mu.Unlock()
	} else {
		u.home[sat] = (u.home[sat] + 1) % len(u.conns)
	}
	if err := u.hello(sat); err != nil {
		return err
	}
	return u.awaitHello()
}

// readLoop serves one connection until it is closed.
func (u *uplink) readLoop(c *uplinkConn) {
	defer u.wg.Done()
	r := bufio.NewReader(c.conn)
	for {
		m, err := southbound.ReadMessage(r)
		if err != nil {
			return
		}
		switch m.Type {
		case southbound.MsgSlotDelta, southbound.MsgSlotSnapshot:
			var t0 time.Time
			if u.timed {
				t0 = time.Now()
			}
			u.install(m)
			if u.timed {
				u.installNs.Add(int64(time.Since(t0)))
			}
			u.cmds.Add(1)
			u.bytes.Add(int64(m.WireSize()))
			c.wmu.Lock()
			err := southbound.WriteMessage(c.conn, &southbound.Message{Type: southbound.MsgAck, SatID: m.SatID, Seq: m.Seq})
			c.wmu.Unlock()
			if err != nil {
				return
			}
		}
	}
}

// install decodes one command and applies it to the satellite's
// installed peer set.
func (u *uplink) install(m *southbound.Message) {
	sat := int(m.SatID)
	if sat >= u.numSats {
		u.bad.Add(1)
		return
	}
	if m.Type == southbound.MsgSlotSnapshot {
		peers, err := southbound.DecodeSlotSnapshot(m.Payload)
		if err != nil {
			u.bad.Add(1)
			return
		}
		slices.Sort(peers)
		u.mu.Lock()
		u.installed[sat] = peers
		u.wiped[sat] = false
		u.mu.Unlock()
		return
	}
	ops, err := southbound.DecodeSlotDelta(m.Payload)
	if err != nil {
		u.bad.Add(1)
		return
	}
	u.mu.Lock()
	set := u.installed[sat]
	for _, op := range ops {
		i, present := slices.BinarySearch(set, op.Peer)
		switch {
		case op.Up && !present:
			set = slices.Insert(set, i, op.Peer)
		case !op.Up && present:
			set = slices.Delete(set, i, i+1)
		}
	}
	u.installed[sat] = set
	u.mu.Unlock()
}

// divergent counts satellites whose installed peer set differs from
// desired (ascending peer lists indexed by satellite), and among them the
// ones a reboot does not explain.
func (u *uplink) divergent(desired [][]uint32) (n, unexplained int) {
	u.mu.Lock()
	defer u.mu.Unlock()
	for sat, want := range desired {
		if !slices.Equal(u.installed[sat], want) {
			n++
			if !u.wiped[sat] {
				unexplained++
			}
		}
	}
	return n, unexplained
}

// close shuts every connection and waits for the read loops to exit.
func (u *uplink) close() {
	for _, c := range u.conns {
		c.conn.Close()
	}
	u.wg.Wait()
}
