// Package netsim models the network fabric: NICs with finite bandwidth and
// FIFO serialization, and links with propagation delay. Saturation shows up
// as queueing delay at the sender NIC — the mechanism behind the paper's
// observation that p99 latency diverges at high load due to queueing in the
// network stack, and behind the iperf-style bandwidth interference of
// Fig. 10.
package netsim

import "ditto/internal/sim"

// NIC is one network interface. Transmissions serialize through it in FIFO
// order at its configured bandwidth; receptions are counted but not rate
// limited separately (the sender-side model dominates in these workloads).
type NIC struct {
	eng           *sim.Engine
	BandwidthGbps float64
	busyUntil     sim.Time

	TxBytes, RxBytes uint64
	TxMsgs, RxMsgs   uint64
}

// NewNIC builds a NIC with the given line rate.
func NewNIC(eng *sim.Engine, gbps float64) *NIC {
	return &NIC{eng: eng, BandwidthGbps: gbps}
}

// serialize reserves transmission time for a message and returns when the
// last byte leaves the wire.
func (n *NIC) serialize(bytes int) sim.Time {
	start := n.eng.Now()
	if n.busyUntil > start {
		start = n.busyUntil
	}
	dur := sim.Time(0)
	if n.BandwidthGbps > 0 {
		dur = sim.FromSeconds(float64(bytes) * 8 / (n.BandwidthGbps * 1e9))
	}
	n.busyUntil = start + dur
	n.TxBytes += uint64(bytes)
	n.TxMsgs++
	return n.busyUntil
}

// QueueDelay reports how long a new message would wait before starting to
// serialize.
func (n *NIC) QueueDelay() sim.Time {
	if n.busyUntil <= n.eng.Now() {
		return 0
	}
	return n.busyUntil - n.eng.Now()
}

// Path describes connectivity from one NIC to another.
type Path struct {
	Src, Dst *NIC
	RTT      sim.Time // round-trip propagation; one-way delay is RTT/2
	Loopback bool     // same-host path: no NIC serialization, memcpy speed
	// Fault, when non-nil, is the live fault state of this link (partition,
	// loss, latency injection). The fabric that resolves paths owns the
	// pointer, so a fault plane can flip a link's state mid-run and every
	// in-flight lookup observes it.
	Fault *LinkFault
}

// LinkFault is the mutable fault state of one link. The zero value is a
// healthy link. Loss decisions consume the fault's own xorshift64* stream,
// so a scenario replays bit-identically from its seed regardless of what
// else runs in the same OS process.
type LinkFault struct {
	Down     bool    // partition: every message is blackholed
	LossProb float64 // per-message drop probability
	// ExtraOne is added one-way propagation (latency spike). It must never be
	// negative: under sharded execution the fabric's base one-way delay is
	// the conservative lookahead already granted to every shard, and a
	// negative adjustment would deliver a message inside a window another
	// shard has committed past (sim.World audits this and panics).
	ExtraOne sim.Time

	Dropped uint64 // messages blackholed or lost on this link
	rng     uint64
}

// NewLinkFault builds a healthy link-fault cell with a seeded loss stream.
func NewLinkFault(seed uint64) *LinkFault {
	return &LinkFault{rng: seed | 1}
}

// Clear restores the link to health, keeping the loss stream and counters.
func (f *LinkFault) Clear() {
	f.Down = false
	f.LossProb = 0
	f.ExtraOne = 0
}

// drop decides the fate of one message. Down always drops; otherwise the
// loss stream is consulted only when LossProb is set, so a healthy link
// never advances the RNG and fault-free runs stay byte-identical to runs
// without a fault plane attached.
func (f *LinkFault) drop() bool {
	if f.Down {
		f.Dropped++
		return true
	}
	if f.LossProb <= 0 {
		return false
	}
	f.rng ^= f.rng >> 12
	f.rng ^= f.rng << 25
	f.rng ^= f.rng >> 27
	if float64(f.rng*0x2545F4914F6CDD1D>>11)/float64(1<<53) < f.LossProb {
		f.Dropped++
		return true
	}
	return false
}

// LoopbackBandwidthGbps approximates kernel loopback throughput.
const LoopbackBandwidthGbps = 160

// LoopbackRTT is the round-trip latency of the loopback path (two kernel
// crossings).
const LoopbackRTT = 25 * sim.Microsecond

// Send transports bytes along the path and invokes deliver when the message
// arrives at the destination. It returns the arrival time. A faulted path
// still charges the sender NIC (the packet leaves the host before the
// network loses it), but a dropped message never reaches the destination:
// deliver is not scheduled and the receiver NIC books nothing.
func Send(eng *sim.Engine, p Path, bytes int, deliver func()) sim.Time {
	if bytes < 0 {
		bytes = 0
	}
	var arrive sim.Time
	if p.Loopback {
		dur := sim.FromSeconds(float64(bytes) * 8 / (LoopbackBandwidthGbps * 1e9))
		arrive = eng.Now() + LoopbackRTT/2 + dur
	} else {
		wireDone := p.Src.serialize(bytes)
		arrive = wireDone + p.RTT/2
	}
	if p.Fault != nil {
		arrive += p.Fault.ExtraOne
		if p.Fault.drop() {
			return arrive
		}
	}
	dst := eng
	if p.Dst != nil && p.Dst.eng != nil {
		dst = p.Dst.eng
	}
	if dst == eng {
		if p.Dst != nil {
			p.Dst.RxBytes += uint64(bytes)
			p.Dst.RxMsgs++
		}
		if deliver != nil {
			eng.Schedule(arrive, deliver)
		}
		return arrive
	}
	// The destination NIC lives on another shard: receiver-side accounting
	// and delivery both execute on the destination machine's timeline, where
	// its state may be touched. The arrival sits at least one one-way link
	// delay out, which is exactly the world's lookahead, so the cross-shard
	// schedule always clears the conservative horizon.
	n, b := p.Dst, bytes
	eng.ScheduleCross(dst, arrive, func() {
		n.RxBytes += uint64(b)
		n.RxMsgs++
		if deliver != nil {
			deliver()
		}
	})
	return arrive
}
