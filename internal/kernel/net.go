package kernel

// Sockets, connections, and epoll. A connection is a pair of message
// queues; sending charges the TCP transmit path and hands the bytes to
// netsim, delivery wakes blocked receivers and epoll waiters. The three
// server-side network models of §4.3.1 are all expressible: blocking
// (Recv), I/O multiplexing (EpollWait), and non-blocking (TryRecv polling).

import (
	"ditto/internal/netsim"
	"ditto/internal/sim"
)

// Msg is one application-level message on a connection.
type Msg struct {
	Bytes   int
	Payload any
	Sent    sim.Time
}

// connSide is one direction's receive state. All mutable fields are owned by
// the side's kernel and only ever touched on its shard; what the remote end
// knows about us arrives as messages (FIN → peerClosed), never as a direct
// read of our fields.
type connSide struct {
	k       *Kernel
	proc    *Proc
	inbox   []Msg
	waiters []*Thread
	epolls  []*Epoll
	peer    *connSide
	closed  bool
	// peerClosed records that the remote side closed, learned one one-way
	// link delay after the fact (the FIN's flight time). Local state only:
	// reading peer.closed directly would cross shards.
	peerClosed bool
}

// Endpoint is one side's handle on a connection.
type Endpoint struct {
	mine *connSide
	peer *connSide
}

// Kernel returns the kernel that owns this endpoint.
func (e *Endpoint) Kernel() *Kernel { return e.mine.k }

// Pending reports queued, undelivered-to-app messages.
func (e *Endpoint) Pending() int { return len(e.mine.inbox) }

// Dead reports whether this side has closed or has learned (via the peer's
// FIN) that the remote side closed — the signal a resilient client uses to
// discard a cached connection to a crashed peer and re-dial. A remote crash
// becomes visible one one-way link delay after it happens, as on a real
// network.
func (e *Endpoint) Dead() bool { return e.mine.closed || e.mine.peerClosed }

// Listener accepts incoming connections on a port.
type Listener struct {
	k       *Kernel
	proc    *Proc // owning process; KillProc unbinds its listeners
	Port    int
	backlog []*Endpoint
	waiters []*Thread
	epolls  []*Epoll
}

// Listen binds a listener to port on the thread's kernel.
func (t *Thread) Listen(port int) *Listener {
	t.syscallEnter(SysSocket, 0, "socket")
	t.syscallEnter(SysListen, 0, "socket")
	l := &Listener{k: t.k, proc: t.Proc, Port: port}
	t.k.listeners[port] = l
	return l
}

// Connect establishes a connection from the calling thread's kernel to a
// listener on dst:port, paying one network round trip for the handshake.
// It retries forever while the port is unbound; use ConnectTimeout when the
// destination may be crashed.
func (t *Thread) Connect(dst *Kernel, port int) *Endpoint {
	return t.connect(dst, port, -1)
}

// ConnectTimeout is Connect with a bounded bind wait: it returns nil when
// no listener claims dst:port within d — how a resilient client observes a
// crashed-and-not-yet-restarted server.
func (t *Thread) ConnectTimeout(dst *Kernel, port int, d sim.Time) *Endpoint {
	if d < 0 {
		d = 0
	}
	return t.connect(dst, port, t.k.eng.Now()+d)
}

// connect implements Connect/ConnectTimeout; deadline < 0 retries forever.
//
// The handshake is a real SYN/SYN-ACK exchange so that every touch of the
// server's state happens on the server's own timeline: the SYN crosses the
// link in one one-way delay and is judged against the listener table at that
// instant (binding or refusing on the server's shard), and the verdict rides
// the SYN/ACK back — the client learns the outcome one full RTT after
// sending, refused and accepted alike. A refused attempt sleeps 200µs and
// retries (the connection-refused retry loop real clients run at startup).
func (t *Thread) connect(dst *Kernel, port int, deadline sim.Time) *Endpoint {
	t.syscallEnter(SysSocket, 0, "socket")
	t.syscallEnter(SysConnect, 0, "socket")
	k := t.k
	path := k.path(dst)
	rtt := path.RTT
	if path.Loopback {
		rtt = netsim.LoopbackRTT
	}
	half := rtt / 2
	for {
		a := &connSide{k: k, proc: t.Proc}
		k.sides = append(k.sides, a)
		var accepted, done bool
		k.eng.ScheduleCross(dst.eng, k.eng.Now()+half, func() {
			var b *connSide
			if l := dst.listeners[port]; l != nil {
				b = &connSide{k: dst, peer: a}
				dst.sides = append(dst.sides, b)
				l.backlog = append(l.backlog, &Endpoint{mine: b, peer: a})
				wakeAll(dst, &l.waiters, "socket")
				notifyEpolls(dst, l.epolls)
			}
			dst.eng.ScheduleCross(k.eng, dst.eng.Now()+half, func() {
				if b != nil {
					a.peer = b
					accepted = true
				}
				done = true
				k.wake(t, "socket")
			})
		})
		for !done {
			t.park()
		}
		if accepted {
			return &Endpoint{mine: a, peer: a.peer}
		}
		a.closed = true // half-open side of the refused attempt
		if deadline >= 0 && k.eng.Now() >= deadline {
			return nil
		}
		wait := 200 * sim.Microsecond
		if deadline >= 0 && k.eng.Now()+wait > deadline {
			wait = deadline - k.eng.Now()
		}
		t.Sleep(wait)
	}
}

// Accept dequeues one pending connection, blocking while the backlog is
// empty.
func (t *Thread) Accept(l *Listener) *Endpoint {
	t.syscallEnter(SysAccept, 0, "socket")
	for len(l.backlog) == 0 {
		l.waiters = append(l.waiters, t)
		t.park()
	}
	ep := l.backlog[0]
	l.backlog = l.backlog[1:]
	ep.mine.proc = t.Proc
	return ep
}

// TryAccept dequeues a pending connection without blocking, returning nil
// when the backlog is empty.
func (t *Thread) TryAccept(l *Listener) *Endpoint {
	if len(l.backlog) == 0 {
		return nil
	}
	return t.Accept(l)
}

// Send transmits a message. The caller pays the TCP transmit path (scaled
// by size) and returns once the data is handed to the NIC; delivery is
// asynchronous via a delivery event (pooled for same-shard sends).
func (t *Thread) Send(e *Endpoint, bytes int, payload any) {
	t.syscallEnter(SysSend, bytes, "socket")
	t.Proc.NetTxBytes += uint64(bytes)
	k := t.k
	dstSide := e.peer
	path := k.path(dstSide.k)
	d := k.newDelivery(dstSide, Msg{Bytes: bytes, Payload: payload, Sent: k.eng.Now()})
	netsim.Send(k.eng, path, bytes, d.fn)
}

// delivery is one in-flight message handoff: the callback netsim invokes at
// arrival time. Same-shard deliveries recycle through the sending kernel's
// pool; the bound fn closure is allocated once per object. A
// faulted-and-dropped send never fires its callback, so that object simply
// stays out of the pool.
type delivery struct {
	k    *Kernel // pool owner; nil for a cross-shard delivery, which is never pooled
	side *connSide
	msg  Msg
	fn   func()
}

// newDelivery takes a delivery object from the pool (or mints one) and arms
// it with the destination and message. When the destination side lives on
// another shard the object is minted fresh and belongs to no pool: run()
// executes on the destination shard, where neither the sender's pool nor
// the receiver's may take it back — the sender's would be a cross-shard
// mutation, and the receiver's never lends to cross-shard sends, so it would
// grow by one object per message received.
func (k *Kernel) newDelivery(side *connSide, msg Msg) *delivery {
	if side.k.eng != k.eng {
		d := &delivery{side: side, msg: msg}
		d.fn = d.run
		return d
	}
	var d *delivery
	if n := len(k.deliveries); n > 0 {
		d = k.deliveries[n-1]
		k.deliveries = k.deliveries[:n-1]
	} else {
		d = &delivery{k: k}
		d.fn = d.run
	}
	d.side = side
	d.msg = msg
	return d
}

// run performs the delivery: queue the message, account received bytes, and
// wake blocked receivers and epoll waiters. A pooled object returns to its
// pool first — the event is single-shot, so it is free for reuse the moment
// its payload has been copied out.
func (d *delivery) run() {
	side, msg := d.side, d.msg
	if d.k != nil {
		d.side = nil
		d.msg = Msg{}
		d.k.deliveries = append(d.k.deliveries, d)
	}
	if side.closed {
		return
	}
	side.inbox = append(side.inbox, msg)
	if side.proc != nil {
		side.proc.NetRxBytes += uint64(msg.Bytes)
	}
	wakeAll(side.k, &side.waiters, "socket")
	notifyEpolls(side.k, side.epolls)
}

// Recv blocks until a message arrives, then charges the receive path
// (bottom half + copy to user) and returns it.
func (t *Thread) Recv(e *Endpoint) Msg {
	side := e.mine
	for len(side.inbox) == 0 {
		side.waiters = append(side.waiters, t)
		t.park()
	}
	msg := side.inbox[0]
	side.inbox = side.inbox[1:]
	t.syscallEnter(SysRecv, msg.Bytes, "socket")
	return msg
}

// RecvTimeout blocks until a message arrives or d elapses, whichever comes
// first. ok is false on timeout and when either side of the connection is
// closed (a crashed peer fails the receive immediately rather than hanging
// for the full timeout). The recv syscall is charged either way.
func (t *Thread) RecvTimeout(e *Endpoint, d sim.Time) (Msg, bool) {
	side := e.mine
	if len(side.inbox) == 0 {
		deadline := t.k.eng.Now() + d
		t.k.eng.Schedule(deadline, t.wakeTimer())
		for len(side.inbox) == 0 {
			if side.closed || side.peerClosed || t.k.eng.Now() >= deadline {
				t.syscallEnter(SysRecv, 0, "socket")
				return Msg{}, false
			}
			side.waiters = append(side.waiters, t)
			t.park()
		}
	}
	msg := side.inbox[0]
	side.inbox = side.inbox[1:]
	t.syscallEnter(SysRecv, msg.Bytes, "socket")
	return msg, true
}

// TryRecv returns a queued message without blocking. ok is false when the
// inbox is empty; the recv syscall is charged either way (the non-blocking
// model's polling cost, §4.3.1).
func (t *Thread) TryRecv(e *Endpoint) (Msg, bool) {
	side := e.mine
	if len(side.inbox) == 0 {
		t.syscallEnter(SysRecv, 0, "socket")
		return Msg{}, false
	}
	msg := side.inbox[0]
	side.inbox = side.inbox[1:]
	t.syscallEnter(SysRecv, msg.Bytes, "socket")
	return msg, true
}

// CloseConn tears down the endpoint's receive side and sends the peer a FIN.
func (t *Thread) CloseConn(e *Endpoint) {
	t.syscallEnter(SysClose, 0, "socket")
	t.k.closeSide(e.mine)
}

// closeSide closes one connection side and notifies the peer's machine one
// one-way link delay later, waking anything blocked on the now-dead
// connection. The FIN is the only way close-ness propagates: the peer's
// fields are never read or written from this shard.
func (k *Kernel) closeSide(s *connSide) {
	if s.closed {
		return
	}
	s.closed = true
	s.inbox = nil
	peer := s.peer
	if peer == nil {
		return
	}
	path := k.path(peer.k)
	half := path.RTT / 2
	if path.Loopback {
		half = netsim.LoopbackRTT / 2
	}
	pk := peer.k
	k.eng.ScheduleCross(pk.eng, k.eng.Now()+half, func() {
		if peer.peerClosed {
			return
		}
		peer.peerClosed = true
		wakeAll(pk, &peer.waiters, "socket")
		notifyEpolls(pk, peer.epolls)
	})
}

// path resolves the network path between two kernels.
func (k *Kernel) path(dst *Kernel) netsim.Path {
	if dst == k || k.fabric == nil {
		return netsim.Path{Loopback: true}
	}
	return k.fabric.Path(k, dst)
}

// wakeAll wakes and clears a waiter list.
func wakeAll(k *Kernel, waiters *[]*Thread, source string) {
	ws := *waiters
	*waiters = nil
	for _, w := range ws {
		k.wake(w, source)
	}
}

// notifyEpolls wakes the waiters of each epoll instance.
func notifyEpolls(k *Kernel, eps []*Epoll) {
	for _, ep := range eps {
		wakeAll(k, &ep.waiters, "socket")
	}
}

// Epoll is an I/O-multiplexing readiness set (level-triggered).
type Epoll struct {
	k         *Kernel
	conns     []*Endpoint
	listeners []*Listener
	waiters   []*Thread
	ready     []Ready // reusable EpollWait result buffer
}

// NewEpoll creates an epoll instance.
func (k *Kernel) NewEpoll() *Epoll { return &Epoll{k: k} }

// EpollAdd registers an endpoint for readiness notification. Waiters are
// woken so data queued before registration is not missed.
func (t *Thread) EpollAdd(ep *Epoll, e *Endpoint) {
	t.syscallEnter(SysEpollCtl, 0, "socket")
	ep.conns = append(ep.conns, e)
	e.mine.epolls = append(e.mine.epolls, ep)
	if len(e.mine.inbox) > 0 {
		wakeAll(ep.k, &ep.waiters, "socket")
	}
}

// EpollAddListener registers a listener for readiness notification.
func (t *Thread) EpollAddListener(ep *Epoll, l *Listener) {
	t.syscallEnter(SysEpollCtl, 0, "socket")
	ep.listeners = append(ep.listeners, l)
	l.epolls = append(l.epolls, ep)
}

// Ready is one readiness report from EpollWait: exactly one field is set.
type Ready struct {
	Conn     *Endpoint
	Listener *Listener
}

// EpollWait blocks until at least one registered source is readable and
// returns the ready set (level-triggered scan). The returned slice reuses
// the epoll instance's buffer: it is valid until the next EpollWait on the
// same instance.
func (t *Thread) EpollWait(ep *Epoll) []Ready {
	t.syscallEnter(SysEpollWait, 0, "socket")
	for {
		ready := ep.ready[:0]
		for _, e := range ep.conns {
			if len(e.mine.inbox) > 0 {
				ready = append(ready, Ready{Conn: e})
			}
		}
		for _, l := range ep.listeners {
			if len(l.backlog) > 0 {
				ready = append(ready, Ready{Listener: l})
			}
		}
		ep.ready = ready
		if len(ready) > 0 {
			return ready
		}
		ep.waiters = append(ep.waiters, t)
		t.park()
	}
}
