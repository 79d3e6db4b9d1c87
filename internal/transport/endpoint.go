// Package transport runs the J-QoS protocol engines over real UDP sockets:
// the same sans-IO cores that power the emulator, driven by a wall-clock
// runtime. cmd/jqos-relay, cmd/jqos-send and cmd/jqos-recv are thin CLIs
// over this package — together they form the paper's prototype shape:
// endpoints duplicating traffic to a nearby relay, relays encoding across
// streams and answering NACKs (§5).
//
// Data plane: a Relay runs the dataplane.Core the emulator's DCNode runs,
// so pinned paths, epoch drain, group fan-out, partial-overlay loopback
// and multi-hop routes behave here as they do under test there. The relay
// is that core's Env — a hop is linked when the address book names it,
// host bindings say which DC serves a host — plus the socket, a mutex
// around the single-threaded core, and a wall-clock timer on its
// deadlines. HostEnd does the same for the dataplane.HostCore the
// emulated Host runs: per-flow receivers taking their service from the
// packet header, bounded state for flow IDs nobody registered.
package transport

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"jqos/internal/core"
	"jqos/internal/wire"
)

// MaxDatagram is the receive buffer size; J-QoS datagrams stay well under
// typical MTUs plus coded-packet metadata.
const MaxDatagram = 64 * 1024

// AddrBook maps overlay node IDs to UDP addresses. It is seeded statically
// (deployments are small) and can learn sender addresses from incoming
// traffic (NAT-friendly for the demo tools). Safe for concurrent use.
type AddrBook struct {
	mu    sync.RWMutex
	addrs map[core.NodeID]*net.UDPAddr
}

// NewAddrBook returns an empty book.
func NewAddrBook() *AddrBook {
	return &AddrBook{addrs: make(map[core.NodeID]*net.UDPAddr)}
}

// Set binds a node to an address.
func (b *AddrBook) Set(id core.NodeID, addr *net.UDPAddr) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.addrs[id] = addr
}

// Lookup resolves a node, or nil.
func (b *AddrBook) Lookup(id core.NodeID) *net.UDPAddr {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.addrs[id]
}

// Learn records the observed source address for a node if none is known
// (static entries win, so spoofed datagrams cannot re-point a peer).
func (b *AddrBook) Learn(id core.NodeID, addr *net.UDPAddr) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.addrs[id]; !ok {
		b.addrs[id] = addr
	}
}

// ParseAddrBook parses "1=127.0.0.1:9001,2=127.0.0.1:9002" into a book.
func ParseAddrBook(spec string) (*AddrBook, error) {
	b := NewAddrBook()
	if strings.TrimSpace(spec) == "" {
		return b, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("transport: bad peer entry %q (want id=host:port)", part)
		}
		id, err := strconv.ParseUint(kv[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("transport: bad node id %q: %v", kv[0], err)
		}
		addr, err := net.ResolveUDPAddr("udp", kv[1])
		if err != nil {
			return nil, fmt.Errorf("transport: bad address %q: %v", kv[1], err)
		}
		b.Set(core.NodeID(id), addr)
	}
	return b, nil
}

// Endpoint is one UDP socket bound to an overlay node identity. It runs a
// receive loop and hands decoded messages to the owner, and transmits
// engine Emits by node ID.
type Endpoint struct {
	Self  core.NodeID
	Book  *AddrBook
	conn  *net.UDPConn
	epoch time.Time

	// Handler receives every decoded datagram: the parsed header, the
	// body, and raw, the whole datagram (body is a slice of it). Called
	// from the receive goroutine. raw is a copy made for this call — the
	// one copy a datagram gets — so the handler may keep or forward it.
	Handler func(now core.Time, hdr *wire.Header, body, raw []byte)

	// DropSend, if set, is consulted before each transmission; returning
	// true silently drops the datagram. Tests use it to inject loss on
	// real sockets.
	DropSend func(to core.NodeID, hdr *wire.Header) bool

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// NewEndpoint binds a UDP socket on listen ("host:port" or ":0").
func NewEndpoint(self core.NodeID, listen string, book *AddrBook) (*Endpoint, error) {
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, err
	}
	if book == nil {
		book = NewAddrBook()
	}
	return &Endpoint{Self: self, Book: book, conn: conn, epoch: time.Now()}, nil
}

// LocalAddr returns the bound address (useful with ":0").
func (e *Endpoint) LocalAddr() *net.UDPAddr { return e.conn.LocalAddr().(*net.UDPAddr) }

// Now returns the endpoint's virtual time (since process epoch); all
// engines share this clock.
func (e *Endpoint) Now() core.Time { return core.Time(time.Since(e.epoch)) }

// Start launches the receive loop.
func (e *Endpoint) Start() {
	e.wg.Add(1)
	go e.receiveLoop()
}

// Close stops the endpoint and waits for the loop to exit.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	err := e.conn.Close()
	e.wg.Wait()
	return err
}

func (e *Endpoint) receiveLoop() {
	defer e.wg.Done()
	buf := make([]byte, MaxDatagram)
	var hdr wire.Header
	for {
		n, from, err := e.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		raw := append([]byte(nil), buf[:n]...)
		body, err := wire.SplitMessage(&hdr, raw)
		if err != nil {
			continue
		}
		e.Book.Learn(hdr.Src, from)
		if e.Handler != nil {
			e.Handler(e.Now(), &hdr, body, raw)
		}
	}
}

// Send transmits one wire-encoded message to a node.
func (e *Endpoint) Send(to core.NodeID, msg []byte) error {
	if e.DropSend != nil {
		var hdr wire.Header
		if _, err := hdr.Unmarshal(msg); err == nil && e.DropSend(to, &hdr) {
			return nil
		}
	}
	addr := e.Book.Lookup(to)
	if addr == nil {
		return fmt.Errorf("transport: no address for %v", to)
	}
	_, err := e.conn.WriteToUDP(msg, addr)
	return err
}

// Transmit sends a batch of engine emits, dropping unroutable ones (the
// engines treat the network as best effort).
func (e *Endpoint) Transmit(emits []core.Emit) {
	for _, em := range emits {
		_ = e.Send(em.To, em.Msg)
	}
}

// pump is the wall-clock half of a sans-IO engine: one timer parked on the
// engine's earliest deadline, and the loop that fires it.
type pump struct {
	timer *time.Timer
	done  chan struct{}
	once  sync.Once
}

func newPump() *pump {
	return &pump{timer: time.NewTimer(time.Hour), done: make(chan struct{})}
}

// run calls fire on every expiry until stop.
func (p *pump) run(fire func()) {
	for {
		select {
		case <-p.done:
			return
		case <-p.timer.C:
			fire()
		}
	}
}

// arm moves the timer to deadline (now when already past), or an hour out
// when the engine holds none.
func (p *pump) arm(now, deadline core.Time, ok bool) {
	d := time.Hour
	if ok {
		d = max(0, deadline-now)
	}
	p.timer.Reset(d)
}

func (p *pump) stop() { p.once.Do(func() { close(p.done) }) }
