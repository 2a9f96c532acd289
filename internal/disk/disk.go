// Package disk models block storage devices: an SSD with low random-access
// latency and an HDD with seek-dominated latency (the Platform A vs B/C
// distinction that makes MongoDB's latency differ across platforms in
// Fig. 7). Requests queue FIFO at the device and complete as simulation
// events.
package disk

import "ditto/internal/sim"

// Class selects a device model.
type Class uint8

// Device classes.
const (
	SSD Class = iota
	HDD
)

// Config describes one device.
type Config struct {
	Class         Class
	ReadLatency   sim.Time // fixed per-op latency (seek + firmware)
	WriteLatency  sim.Time
	BandwidthMBps float64 // sustained transfer rate
}

// SSDConfig returns parameters for a SATA-class SSD.
func SSDConfig() Config {
	return Config{Class: SSD, ReadLatency: 80 * sim.Microsecond,
		WriteLatency: 30 * sim.Microsecond, BandwidthMBps: 500}
}

// HDDConfig returns parameters for a 7200rpm disk.
func HDDConfig() Config {
	return Config{Class: HDD, ReadLatency: 8 * sim.Millisecond,
		WriteLatency: 4 * sim.Millisecond, BandwidthMBps: 150}
}

// Counters accumulates device activity for bandwidth validation.
type Counters struct {
	ReadOps, WriteOps     uint64
	ReadBytes, WriteBytes uint64
	BusyTime              sim.Time
}

// Device is one queued block device. Requests are serviced in FIFO order;
// each occupies the device for latency + size/bandwidth.
type Device struct {
	eng       *sim.Engine
	cfg       Config
	busyUntil sim.Time
	ctr       Counters
}

// New builds a device on the given engine.
func New(eng *sim.Engine, cfg Config) *Device {
	return &Device{eng: eng, cfg: cfg}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Counters returns a snapshot of the accumulated activity.
func (d *Device) Counters() Counters { return d.ctr }

// Read schedules a read of the given size and invokes done when it
// completes. Sequential merging is the caller's job (the page cache batches
// contiguous misses into one request).
func (d *Device) Read(bytes int, done func()) sim.Time {
	return d.submit(bytes, d.cfg.ReadLatency, true, done)
}

// Write schedules a write; done may be nil for write-back behaviour.
func (d *Device) Write(bytes int, done func()) sim.Time {
	return d.submit(bytes, d.cfg.WriteLatency, false, done)
}

// submit queues one request and returns its completion time.
func (d *Device) submit(bytes int, lat sim.Time, read bool, done func()) sim.Time {
	if bytes < 0 {
		bytes = 0
	}
	start := d.eng.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	xfer := sim.Time(0)
	if d.cfg.BandwidthMBps > 0 {
		xfer = sim.FromSeconds(float64(bytes) / (d.cfg.BandwidthMBps * 1e6))
	}
	end := start + lat + xfer
	d.busyUntil = end
	d.ctr.BusyTime += lat + xfer
	if read {
		d.ctr.ReadOps++
		d.ctr.ReadBytes += uint64(bytes)
	} else {
		d.ctr.WriteOps++
		d.ctr.WriteBytes += uint64(bytes)
	}
	if done != nil {
		d.eng.Schedule(end, done)
	}
	return end
}

// QueueDepthTime reports how far in the future the device is booked — a
// proxy for queue depth used by utilization studies.
func (d *Device) QueueDepthTime() sim.Time {
	if d.busyUntil <= d.eng.Now() {
		return 0
	}
	return d.busyUntil - d.eng.Now()
}
