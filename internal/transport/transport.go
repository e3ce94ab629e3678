// Package transport implements the reliable windowed byte streams the
// benchmark program drives over the simulated network — the synthetic
// stand-in for the paper's TCP connections (§5.1). It is a go-back-N
// protocol with cumulative acknowledgements, a fixed window, and timeout
// retransmission. Throughput therefore emerges from the interaction of
// CPU capacity, link serialization, window backpressure and interrupt
// batching, exactly the dynamics the paper measures; nothing in this
// package hard-codes a rate.
package transport

import (
	"fmt"

	"cdna/internal/ether"
	"cdna/internal/sim"
	"cdna/internal/stats"
)

// TCPIPOverhead is the bytes of L3+L4 headers per segment (IP + TCP with
// timestamps), so a 1448-byte payload yields the classic 1514-byte
// Ethernet frame.
const TCPIPOverhead = 52

// DefaultSegSize is the per-segment payload (1448 bytes, the standard
// MSS with TCP timestamps on a 1500-byte MTU).
const DefaultSegSize = 1448

// PeerHost is the Addr.Host value for the CPU-less peer machine of the
// classic single-host topology — the far end that is not a modelled
// host on the fabric.
const PeerHost = -1

// Addr identifies a connection endpoint on the simulated fabric: which
// host, which guest on it, and which of the host's NIC ports the
// endpoint's traffic uses. The machine builders fill these in when they
// wire connections, so workloads and tests can see (and target) any
// remote guest; Host is PeerHost for the off-fabric peer and Guest 0 is
// the first guest (or the native host OS).
type Addr struct {
	Host  int `json:"host"`
	Guest int `json:"guest"`
	Port  int `json:"port"`
}

// String formats the address as "h<host>.g<guest>.p<port>" ("peer.p<n>"
// for the off-fabric peer).
func (a Addr) String() string {
	if a.Host == PeerHost {
		return fmt.Sprintf("peer.p%d", a.Port)
	}
	return fmt.Sprintf("h%d.g%d.p%d", a.Host, a.Guest, a.Port)
}

// Segment is one transport PDU; it rides in ether.Frame.Payload.
//
// Segments on the hot path come from a SegPool and are
// reference-counted: the frame carrying a segment owns one reference
// (released when the frame is freed), and a receive path that keeps
// the segment past the frame's lifetime (a stack rx queue) retains its
// own. Segments built as plain literals (tests) have
// no pool; their Retain/Release are no-ops and the garbage collector
// owns them. Pooled segments are immutable once handed to the send
// path.
type Segment struct {
	Conn   *Conn
	Seq    uint32 // data sequence number (in segments)
	Len    int    // payload bytes (0 for a pure ack)
	Ack    bool
	AckSeq uint32   // cumulative: next expected data seq
	SentAt sim.Time // transmit timestamp for latency measurement

	pool *SegPool
	refs int32
}

// FrameBytes returns the Ethernet frame size for this segment.
func (s *Segment) FrameBytes() int {
	return ether.HeaderBytes + TCPIPOverhead + s.Len
}

// SegPool is a segment free list. One pool serves one engine; it is not
// safe for concurrent use.
type SegPool struct {
	free []*Segment

	// Gets/Puts count pooled traffic; News counts free-list misses. In
	// steady state News stops growing — the transport_segment benchmark
	// and the zero-alloc tests hold that.
	Gets, Puts, News uint64
}

// NewSegPool creates an empty pool.
func NewSegPool() *SegPool { return &SegPool{} }

// Get returns a zeroed segment with one reference, owned by the caller.
func (p *SegPool) Get() *Segment {
	p.Gets++
	var s *Segment
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		*s = Segment{pool: p}
	} else {
		p.News++
		s = &Segment{pool: p}
	}
	s.refs = 1
	return s
}

// put recycles a freed segment.
func (p *SegPool) put(s *Segment) {
	p.Puts++
	p.free = append(p.free, s)
}

// FreeLen returns the current free-list depth (tests).
func (p *SegPool) FreeLen() int { return len(p.free) }

// Retain adds a reference. No-op for unpooled segments.
func (s *Segment) Retain() {
	if s.pool == nil {
		return
	}
	if s.refs <= 0 {
		panic("transport: Retain of a released segment")
	}
	s.refs++
}

// Release drops one reference; the last one returns the segment to its
// pool. No-op for unpooled segments.
func (s *Segment) Release() {
	if s.pool == nil {
		return
	}
	if s.refs <= 0 {
		panic("transport: Release of a released segment")
	}
	s.refs--
	if s.refs > 0 {
		return
	}
	s.Conn = nil
	s.pool.put(s)
}

// RetainPayload implements ether.PayloadRef.
func (s *Segment) RetainPayload() { s.Retain() }

// ReleasePayload implements ether.PayloadRef.
func (s *Segment) ReleasePayload() { s.Release() }

var _ ether.PayloadRef = (*Segment)(nil)

// Dispatch routes a received segment to its connection endpoint. Hosts
// call this after their receive path has delivered the frame payload.
func Dispatch(s *Segment) {
	if s.Ack {
		s.Conn.OnAck(s)
	} else {
		s.Conn.OnData(s)
	}
}

// Conn is one unidirectional data connection (data flows sender →
// receiver; acks flow back). The two endpoints live on different hosts;
// each attaches its transmit path.
type Conn struct {
	ID       int
	SegSize  int
	Window   int // max unacknowledged segments in flight
	AckEvery int

	// Local and Remote identify the endpoints on the fabric (data flows
	// Local → Remote). Set by the machine builders; informational.
	Local, Remote Addr

	eng *sim.Engine
	// RTO is the retransmission timeout (default 3ms; the benchmark
	// harness raises it to TCP-like values for long queueing paths).
	RTO sim.Time

	// pool recycles data segments and acks. Machine builders set it via
	// SetPool; a nil pool falls back to plain heap allocation with
	// identical behavior.
	pool *SegPool

	// Sender state.
	sendData func(*Segment)
	sndNext  uint32 // next seq to transmit
	sndUna   uint32 // oldest unacknowledged seq
	cwnd     int    // slow-start congestion window (segments)
	started  bool
	bounded  bool       // Send() budget in effect (false for Start()'s infinite stream)
	limit    uint32     // sequence bound of the current send budget
	rtoTimer *sim.Timer // persistent retransmit timer, re-armed in place
	rtoUna   uint32     // sndUna snapshot when the timer was last armed

	// OnSendComplete, if set, fires at the sender when every budgeted
	// segment has been cumulatively acknowledged — the sender-side
	// message-completion seam workloads use to close a flow or chain
	// the next one. Never fires for an unbounded (Start) stream.
	OnSendComplete func()

	// Receiver state.
	sendAck func(*Segment)
	rcvNext uint32
	unacked int

	// Receiver message-completion seam: ExpectDelivery arms a mark;
	// when in-order delivery reaches it, the pending delayed ack is
	// flushed (so a bounded flow's tail does not idle until the RTO)
	// and OnMark fires.
	markArmed bool
	rcvMark   uint32
	OnMark    func()

	// Metrics.
	Delivered   stats.ByteMeter // in-order payload bytes at the receiver
	Retransmits stats.Counter
	DupDrops    stats.Counter // out-of-order/duplicate segments discarded
	AcksSent    stats.Counter
	// Latency samples end-to-end segment delay (send to in-order
	// delivery) in microseconds.
	Latency stats.Distribution
}

// NewConn creates a connection. Window is in segments; ackEvery is the
// delayed-ack threshold (2, like TCP's default).
func NewConn(eng *sim.Engine, id, segSize, window int) *Conn {
	c := &Conn{
		ID: id, SegSize: segSize, Window: window, AckEvery: 2,
		eng: eng, RTO: 3 * sim.Millisecond,
	}
	c.rtoTimer = eng.NewTimer("transport.rto", c.onRTO)
	return c
}

// SetPool installs the pool that data segments and acks are drawn
// from; nil keeps plain heap allocation.
func (c *Conn) SetPool(p *SegPool) { c.pool = p }

// AttachSender installs the sender host's transmit function.
func (c *Conn) AttachSender(send func(*Segment)) { c.sendData = send }

// AttachReceiver installs the receiver host's ack-transmit function.
func (c *Conn) AttachReceiver(sendAck func(*Segment)) { c.sendAck = sendAck }

// Start begins pumping data (the stream is infinite; the benchmark
// measures a window of it). The sender slow-starts: the effective window
// begins at InitialCwnd segments and grows by one per acknowledgement up
// to Window, so connection startup does not flood downstream queues.
func (c *Conn) Start() {
	c.started = true
	if c.cwnd == 0 {
		c.cwnd = InitialCwnd
	}
	c.Pump()
}

// Send queues n more segments of data on the connection and pumps. The
// connection becomes bounded: transmission stops when the budget is
// exhausted, and once every budgeted segment is acknowledged
// OnSendComplete fires. Workloads call Send per message (a request, a
// response, a short flow) instead of Start's saturate-forever stream;
// successive Sends extend the budget.
func (c *Conn) Send(n int) {
	if n <= 0 {
		return
	}
	c.bounded = true
	c.started = true
	if c.cwnd == 0 {
		c.cwnd = InitialCwnd
	}
	c.limit += uint32(n)
	c.Pump()
}

// Pause stops the sender from transmitting new segments; in-flight data
// still completes and acks are still processed. Resume continues.
func (c *Conn) Pause() { c.started = false }

// Resume restarts a paused sender and pumps.
func (c *Conn) Resume() {
	if c.started {
		return
	}
	c.started = true
	if c.cwnd == 0 {
		c.cwnd = InitialCwnd
	}
	c.Pump()
}

// ResetSlowStart returns the congestion window to its initial value, as
// a freshly opened connection would start. Churn workloads call it per
// short-lived flow so that every flow pays connection-startup dynamics
// instead of inheriting the previous flow's opened window.
func (c *Conn) ResetSlowStart() { c.cwnd = InitialCwnd }

// ExpectDelivery arms the receiver-side message-completion mark n
// in-order data segments past the current delivery point. When delivery
// reaches the mark the pending delayed ack is flushed and OnMark fires
// once. Re-arm per message.
func (c *Conn) ExpectDelivery(n int) {
	c.markArmed = true
	c.rcvMark = c.rcvNext + uint32(n)
}

// InitialCwnd is the slow-start initial window in segments.
const InitialCwnd = 4

// effWindow returns the current effective send window.
func (c *Conn) effWindow() int {
	if c.cwnd > 0 && c.cwnd < c.Window {
		return c.cwnd
	}
	return c.Window
}

// InFlight returns the number of unacknowledged segments.
func (c *Conn) InFlight() int { return int(c.sndNext - c.sndUna) }

// mayTransmit reports whether the send budget allows another segment
// (always true for an unbounded stream).
func (c *Conn) mayTransmit() bool {
	return !c.bounded || int32(c.limit-c.sndNext) > 0
}

// Pump transmits while the window and the send budget allow. The host's
// send function is responsible for backpressure-free queuing (the
// window bounds how much can ever be queued at once).
func (c *Conn) Pump() {
	if !c.started || c.sendData == nil {
		return
	}
	for c.InFlight() < c.effWindow() && c.mayTransmit() {
		var seg *Segment
		if c.pool != nil {
			seg = c.pool.Get()
		} else {
			seg = &Segment{}
		}
		seg.Conn, seg.Seq, seg.Len, seg.SentAt = c, c.sndNext, c.SegSize, c.eng.Now()
		c.sndNext++
		c.sendData(seg)
	}
	if !c.bounded || c.InFlight() > 0 {
		c.armRTO()
	} else if c.rtoTimer.Armed() {
		// Budget exhausted with nothing in flight: a bounded sender goes
		// quiet instead of re-arming the retransmit timer forever.
		c.rtoTimer.Stop()
	}
}

func (c *Conn) armRTO() {
	c.rtoUna = c.sndUna
	c.rtoTimer.ArmAfter(c.RTO)
}

// onRTO is the retransmit timer's callback (bound once at NewConn; the
// captured-state of the old per-arm closure lives in rtoUna).
func (c *Conn) onRTO() {
	if c.sndUna == c.rtoUna && c.InFlight() > 0 {
		// No progress: go-back-N rewind, restart slow start, resend.
		c.Retransmits.Add(uint64(c.InFlight()))
		c.sndNext = c.sndUna
		c.cwnd = InitialCwnd
		c.Pump()
		return
	}
	c.armRTO()
}

// OnAck processes a cumulative acknowledgement at the sender.
func (c *Conn) OnAck(s *Segment) {
	if int32(s.AckSeq-c.sndUna) > 0 {
		if c.cwnd < c.Window {
			c.cwnd++
		}
		c.sndUna = s.AckSeq
		if int32(c.sndNext-c.sndUna) < 0 {
			// Ack beyond what we sent (can only happen after a rewind
			// raced an in-flight delivery): resync.
			c.sndNext = c.sndUna
		}
		c.Pump()
		if c.bounded && c.sndUna == c.limit && c.OnSendComplete != nil {
			// Whole budget acknowledged: the message is complete. The
			// callback may Send again (extending the budget), so this
			// fires exactly once per exhaustion.
			c.OnSendComplete()
		}
	}
}

// OnData processes a data segment at the receiver: in-order data is
// delivered and (per delayed-ack policy) acknowledged; anything else is
// dropped and the current cumulative ack is repeated so the sender can
// recover.
func (c *Conn) OnData(s *Segment) {
	if s.Seq == c.rcvNext {
		c.rcvNext++
		c.Delivered.Add(uint64(s.Len))
		c.Latency.Observe(float64(c.eng.Now()-s.SentAt) / 1000)
		c.unacked++
		if c.markArmed && int32(c.rcvNext-c.rcvMark) >= 0 {
			c.markArmed = false
			if c.unacked > 0 {
				c.emitAck()
			}
			if c.OnMark != nil {
				c.OnMark()
			}
		} else if c.unacked >= c.AckEvery {
			c.emitAck()
		}
		return
	}
	// Out of order (a drop upstream) or duplicate: discard, re-ack.
	c.DupDrops.Inc()
	c.emitAck()
}

func (c *Conn) emitAck() {
	c.unacked = 0
	if c.sendAck == nil {
		return
	}
	c.AcksSent.Inc()
	var s *Segment
	if c.pool != nil {
		s = c.pool.Get()
	} else {
		s = &Segment{}
	}
	s.Conn, s.Ack, s.AckSeq = c, true, c.rcvNext
	c.sendAck(s)
}

// StartWindow resets the connection's windowed metrics.
func (c *Conn) StartWindow() {
	c.Delivered.StartWindow()
	c.Retransmits.StartWindow()
	c.DupDrops.StartWindow()
	c.AcksSent.StartWindow()
}

// Group aggregates connections for measurement.
type Group struct {
	Conns []*Conn
}

// Add appends a connection.
func (g *Group) Add(c *Conn) { g.Conns = append(g.Conns, c) }

// Grow pre-allocates capacity for at least n further connections:
// machine builders know the topology's connection count up front, so
// the wiring loops never re-grow the slice.
func (g *Group) Grow(n int) {
	if cap(g.Conns)-len(g.Conns) >= n {
		return
	}
	nc := make([]*Conn, len(g.Conns), len(g.Conns)+n)
	copy(nc, g.Conns)
	g.Conns = nc
}

// StartWindow resets all member metrics.
func (g *Group) StartWindow() {
	for _, c := range g.Conns {
		c.StartWindow()
	}
}

// DeliveredMbps returns aggregate goodput over dur. An empty group or a
// non-positive duration yields 0, never NaN/Inf: churn workloads can
// legitimately end a window with no completed traffic.
func (g *Group) DeliveredMbps(dur sim.Time) float64 {
	if len(g.Conns) == 0 || dur <= 0 {
		return 0
	}
	total := 0.0
	for _, c := range g.Conns {
		total += c.Delivered.Mbps(dur)
	}
	return total
}

// DeliveredBytes returns aggregate windowed payload bytes.
func (g *Group) DeliveredBytes() uint64 {
	var total uint64
	for _, c := range g.Conns {
		total += c.Delivered.Window()
	}
	return total
}

// Retransmits returns aggregate windowed retransmissions.
func (g *Group) Retransmits() uint64 {
	var total uint64
	for _, c := range g.Conns {
		total += c.Retransmits.Window()
	}
	return total
}

// LatencyQuantile returns the q-quantile of end-to-end segment latency
// in microseconds, pooled across connections. With no connections or no
// samples at all it returns 0, never NaN.
func (g *Group) LatencyQuantile(q float64) float64 {
	if len(g.Conns) == 0 {
		return 0
	}
	var pool stats.Distribution
	for _, c := range g.Conns {
		n := c.Latency.Count()
		for _, p := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			if n > 0 {
				pool.Observe(c.Latency.Quantile(p))
			}
		}
	}
	return pool.Quantile(q)
}

// FairnessIndex returns Jain's fairness index over per-connection
// windowed goodput (1.0 = perfectly balanced, as the paper's benchmark
// tool enforces). An empty group, or one that delivered nothing in the
// window, is vacuously fair: 1, never NaN.
func (g *Group) FairnessIndex() float64 {
	if len(g.Conns) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, c := range g.Conns {
		v := float64(c.Delivered.Window())
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return 1
	}
	n := float64(len(g.Conns))
	return sum * sum / (n * sumSq)
}
