package netserve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ftmm/internal/buffer"
	"ftmm/internal/cluster"
	"ftmm/internal/metrics"
	"ftmm/internal/sched"
	"ftmm/internal/server"
)

// Default tuning knobs.
const (
	defaultSendQueue    = 64
	defaultWriteTimeout = 10 * time.Second
	helloTimeout        = 30 * time.Second

	// sessionShards sizes the session registry's lock striping.
	sessionShards = 16

	// Timer-wheel resolution for write-stall supervision. Stall
	// detection only needs coarse accuracy (WriteTimeout is seconds),
	// so a 25ms tick keeps the wheel goroutine nearly idle.
	wheelTick  = 25 * time.Millisecond
	wheelSlots = 256
)

// Options configures a NetServer.
type Options struct {
	// Server is the cycle-engine back end. NetServer serializes all
	// access to it behind one mutex — server.Server itself is not
	// concurrency-safe.
	Server *server.Server
	// NodeID names this node in a cluster. It rides in ADMIT-OK and on
	// the HTTP status surface; empty for a standalone server.
	NodeID string
	// Addr is the TCP listen address; empty means loopback with an
	// OS-assigned port (the usual test setting).
	Addr string
	// Clock paces transmission cycles. nil selects manual mode: the
	// owner drives cycles through StepCycle, nothing runs on a timer.
	Clock Clock
	// SendQueue bounds the per-session outbound queue, counted in
	// per-cycle bursts. A session whose queue overflows is shed (its
	// stream cancelled, connection closed) so one stalled client cannot
	// delay the cycle loop or other streams.
	SendQueue int
	// WriteTimeout bounds one burst's socket write; a stalled write is
	// detected by the shared timer wheel and the connection is cut.
	WriteTimeout time.Duration
	// WriteBufferBytes shrinks the kernel send buffer on accepted
	// connections when > 0. Shedding tests use a small value so a
	// non-reading client exerts backpressure quickly.
	WriteBufferBytes int
	// EnablePprof mounts net/http/pprof profiling handlers under
	// /debug/pprof/ on Handler's mux. Opt-in: profile endpoints can
	// stall a loaded server and should not be exposed by default.
	EnablePprof bool
	// NoPipeline disables the two-stage cycle pipeline: StepCycle stages,
	// flushes, and closes out the cycle's deliveries before returning,
	// exactly as the pre-pipeline loop did, instead of overlapping them
	// with the next cycle's engine reads. The differential tests' oracle
	// for the pipeline — the bytes every client sees are bit-identical
	// either way.
	NoPipeline bool
	// BatchCycles, when > 0, batches flash-crowd starts: a fresh ADMIT
	// parks for up to this many engine cycles so that same-title arrivals
	// inside the window admit together at one cycle boundary — their
	// engine streams then run in lockstep, so the merged-read/shared-
	// frame machinery serves the whole cohort with one physical staging
	// run. 0 (the default) admits immediately. RESUME admissions never
	// batch: a failover client is already mid-title.
	BatchCycles int
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// scheduledEvent is a fault-injection action bound to a cycle number.
type scheduledEvent struct {
	cycle int
	desc  string
	apply func() error
}

// NetServer accepts framed TCP sessions and paces admitted streams'
// tracks out at playback rate, one burst per transmission cycle.
type NetServer struct {
	opts       Options
	srv        *server.Server
	ln         net.Listener
	cycleTime  time.Duration
	burst      int
	trackSize  int
	groupWidth int

	// sessions is sharded so admission, teardown from reader/writer
	// goroutines, and the HTTP surface do not serialize on the engine
	// lock at high session counts.
	sessions sessionTable

	// wheel supervises every session's in-flight write from a single
	// goroutine, replacing a per-write SetWriteDeadline syscall pair.
	wheel *TimerWheel

	// burstPool recycles burst containers; sharedPool recycles shared-run
	// containers (each carries its own reusable TRACK-header slab).
	// Together with refcounted track payloads they make the steady-state
	// write path allocation-free.
	burstPool  sync.Pool
	sharedPool sync.Pool
	// ctrlPool recycles small per-session control-frame buffers (hiccup
	// notes) whose contents vary; fixed control frames (BYE) are static.
	ctrlPool sync.Pool

	// mu is the engine lock, shrunk to control-plane work: it guards
	// srv (admit/cancel/step), schedule, view, drain state, VCR session
	// state (paused/rate/resumeTrack), the batch table, and the retired
	// stream-ID queue. Delivery staging runs outside it, on the shard
	// workers.
	mu       sync.Mutex
	cond     *sync.Cond
	schedule []scheduledEvent
	view     *cluster.View
	// batches parks flash-crowd ADMITs per title until their window
	// closes (Options.BatchCycles); pendingWaiters counts parked
	// connections so the pacer keeps stepping toward the flush.
	batches        map[string]*titleBatch
	pendingWaiters int
	// retired queues a resumed session's old stream-ID alias for removal
	// once every pipeline pass that might still stage under it has
	// drained (two cycles; see resumeSessionLocked).
	retired []retiredID
	// pausedSessions counts sessions parked by PAUSE (no engine stream);
	// the net_sessions_paused gauge mirrors it.
	pausedSessions int
	// hbConns tracks live coordinator heartbeat channels so Close can
	// cut them (their goroutines otherwise sit in a long read).
	hbConns  map[net.Conn]struct{}
	draining bool
	drained  chan struct{}
	closed   bool

	// stepMu serializes cycle drivers (the pacer, tests, the chaos
	// harness) and guards the pipeline's pass pointers. It is never held
	// while waiting on mu's owner, and staging holds neither lock, so
	// HELLO/ADMIT only ever queue behind the engine's read phase.
	stepMu  sync.Mutex
	curPass *stagePass // the last stepped cycle's pass; may still be staging
	prvPass *stagePass // the pass before it; must finish before the next Step

	// stagers feed the per-shard staging workers (one per session-table
	// shard); scratch[w] is worker w's private touched/finishing lists.
	stagers  [sessionShards]chan *stagePass
	scratch  [sessionShards]stageScratch
	passPool sync.Pool

	// Cached hot-path instruments (a registry lookup per track would
	// contend across 16 workers).
	tracksSent, bytesSent, hiccupsSent, mergedTracks *metrics.Counter
	// Flash-crowd batching instruments: admitted-through-a-batch count,
	// flush count, and per-waiter wait time (ms) whose percentiles ride
	// /metricsz.
	batchedStarts, batchRuns *metrics.Counter
	batchWaitMs              *metrics.Histogram
	// Pipeline phase histograms: engine read time, pass staging time,
	// per-burst socket write time (all µs), and the share of each Step
	// that overlapped the previous cycle's staging (percent).
	phaseRead, phaseStage, phaseFlush, phaseOverlap *metrics.Histogram

	// reportHook, when non-nil, receives a Clone of every stepped
	// cycle's report before its pass is dispatched. Tests use it to
	// compare pipelined and NoPipeline runs report-for-report; set it
	// before the first StepCycle and leave it alone after.
	reportHook func(*sched.CycleReport)

	stop chan struct{}
	wg   sync.WaitGroup
}

// stageScratch is one shard worker's private per-pass scratch: sessions
// with a burst staged this pass, and sessions whose queue closes once
// that burst is flushed. Only worker w touches scratch[w].
type stageScratch struct {
	touched   []*session
	finishing []*session
}

// stagePass is one cycle's delivery staging, fanned across the shard
// workers while the engine may already be computing the next cycle.
// The pass owns nothing of the report's buffers directly — each staged
// frame retains its track's ref — but it does hold one reference on
// every sharedFrames it creates (see sharedFor) until the pass
// completes, so concurrent workers can attach to a shared run without
// racing its teardown.
type stagePass struct {
	rep *sched.CycleReport
	// pending counts shard workers still staging; the last one out
	// releases the pass holds, observes the stage histogram, re-checks
	// drain, and closes done.
	pending atomic.Int32
	done    chan struct{}
	start   time.Time
	// idle marks a pass whose report touched no shard (nothing staged,
	// finished inline). Idle passes skip the stage/overlap histograms so
	// drain-spin cycles don't dilute the phase means with zeros.
	idle bool
	// doneAt is the pass-completion wall time in UnixNanos (0 while
	// running) — the next Step reads it to compute the overlap ratio.
	doneAt atomic.Int64

	// shared maps a run's first payload ref to its staged shared frames
	// within this pass. Sessions whose delivered run is pointer-identical
	// (the engine merged their reads) attach the same sharedFrames
	// instead of re-staging it. Guarded by sharedMu: runs merge across
	// stream IDs, so workers on different shards reach the same entry.
	sharedMu sync.Mutex
	shared   map[*buffer.Ref]*sharedFrames
}

// sessionTable is a lock-striped stream-ID → session map.
type sessionTable struct {
	count  atomic.Int64
	shards [sessionShards]struct {
		mu sync.RWMutex
		m  map[int]*session
	}
}

func (t *sessionTable) init() {
	for i := range t.shards {
		t.shards[i].m = make(map[int]*session)
	}
}

func (t *sessionTable) get(id int) *session {
	sh := &t.shards[uint(id)%sessionShards]
	sh.mu.RLock()
	sess := sh.m[id]
	sh.mu.RUnlock()
	return sess
}

func (t *sessionTable) put(sess *session) { t.putID(sess.id, sess) }

// putID registers the session under an explicit stream ID. A session
// resumed from pause briefly lives under two IDs: the new stream's (its
// identity from here on) and its pre-pause stream's, kept as an alias
// until the pipeline passes that might still stage old-ID tracks drain.
func (t *sessionTable) putID(id int, sess *session) {
	sh := &t.shards[uint(id)%sessionShards]
	sh.mu.Lock()
	sh.m[id] = sess
	sh.mu.Unlock()
	t.count.Add(1)
}

// remove unregisters the session, reporting whether this call was the
// one that removed it (teardown can race from reader, writer, and cycle
// loop; exactly one caller wins and does the back-end cancel).
func (t *sessionTable) remove(sess *session) bool {
	return t.removeID(sess.id, sess)
}

// removeID unregisters one (id → sess) entry, pointer-checked so a
// reused stream ID belonging to a different session is never evicted.
func (t *sessionTable) removeID(id int, sess *session) bool {
	sh := &t.shards[uint(id)%sessionShards]
	sh.mu.Lock()
	cur, ok := sh.m[id]
	if ok && cur == sess {
		delete(sh.m, id)
	}
	sh.mu.Unlock()
	if ok && cur == sess {
		t.count.Add(-1)
		return true
	}
	return false
}

// forEach visits every registered session (aliased sessions may be
// visited twice). Callers must not re-enter the table from f.
func (t *sessionTable) forEach(f func(*session)) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for _, sess := range sh.m {
			f(sess)
		}
		sh.mu.RUnlock()
	}
}

func (t *sessionTable) len() int { return int(t.count.Load()) }

// drainAll empties the table, invoking f on each removed session.
func (t *sessionTable) drainAll(f func(*session)) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for id, sess := range sh.m {
			delete(sh.m, id)
			t.count.Add(-1)
			f(sess)
		}
		sh.mu.Unlock()
	}
}

// outFrame is one frame staged into a burst: either a pre-encoded
// control frame (ctrl, with ctrlp set when its buffer came from the
// control-frame pool) or a TRACK frame as a header slice into its
// container's slab plus the payload, where ref (when non-nil) holds the
// payload's refcount.
type outFrame struct {
	ctrl    []byte
	ctrlp   *[]byte
	hdr     []byte
	payload []byte
	ref     *buffer.Ref
}

// sharedFrames is one title+cycle's TRACK frames, staged once and
// written by every session whose delivery this cycle is the same merged
// run (same refcounted buffers, in order — the engine's same-title read
// merging makes these pointer-identical across sessions). holders counts
// the staging pass (which holds one reference from creation until the
// pass completes) plus the bursts that still owe a release; the last one
// to let go releases the refs and recycles the container, slab and all.
type sharedFrames struct {
	frames  []outFrame
	hdrs    []byte // TRACK-header slab, reused across cycles
	holders atomic.Int32
}

// burst is one cycle's worth of frames for one session, written with a
// single vectored write: an optional shared TRACK-frame run (written
// first, preserving track-before-control order) plus the session's
// private frames (control frames, or unshared tracks).
type burst struct {
	shared *sharedFrames
	frames []outFrame
	hdrs   []byte // TRACK-header slab, reused across cycles
	bufs   net.Buffers
}

// appendTrackHeader carves the next TRACK header out of slab, returning
// the grown slab and the header slice. When append moves the slab to a
// bigger backing array, headers carved earlier stay valid — their
// frames keep the old array alive — so only the final backing is kept
// for reuse and steady-state cycles never allocate here.
func appendTrackHeader(slab []byte, track, dataLen int) ([]byte, []byte) {
	var zero [trackHeaderLen]byte
	n := len(slab)
	slab = append(slab, zero[:]...)
	h := slab[n : n+trackHeaderLen : n+trackHeaderLen]
	h[0] = frameTrack
	binary.BigEndian.PutUint32(h[1:frameHeaderLen], uint32(4+dataLen))
	binary.BigEndian.PutUint32(h[frameHeaderLen:], uint32(track))
	return slab, h
}

// session is one admitted client connection.
type session struct {
	id    int
	title string
	conn  net.Conn

	// sendq carries one burst per cycle from the cycle loop to the
	// write loop. The cycle loop closes it on graceful finish so the
	// writer flushes the tail and hangs up.
	sendq chan *burst
	// done is closed when the session is shed or the server shuts down;
	// the writer exits after releasing whatever is still queued.
	done chan struct{}
	once sync.Once

	// sendMu orders enqueue against kill: once dead is observed no new
	// burst can enter sendq, so the writer's final drain is complete.
	sendMu   sync.Mutex
	dead     bool
	finished bool

	// cur accumulates the current cycle's frames; cycle loop only.
	cur *burst
	// wt is the session's slot on the shared timer wheel, armed around
	// each vectored write by the write loop.
	wt *WheelTimer

	// VCR state, guarded by ns.mu. A paused session keeps its connection
	// and table entry but holds no engine stream — its cycle bandwidth is
	// back in the admission pool; resumeTrack is the first track owed when
	// it re-admits. rate is the playback multiplier the engine currently
	// grants this session (0/1 = normal).
	paused      bool
	rate        int
	resumeTrack int
}

// batchWaiter is one connection parked in a flash-crowd batch. The
// flusher admits it at the window boundary, fills sess/reject, and
// closes done; handleConn blocks on done.
type batchWaiter struct {
	conn    net.Conn
	arrival time.Time
	sess    *session
	reject  Reject
	done    chan struct{}
}

// titleBatch collects same-title ADMITs arriving within one batching
// window; due is the engine cycle at which the batch flushes.
type titleBatch struct {
	due     int
	waiters []*batchWaiter
}

// retiredID is a resumed session's old stream-ID alias, removable once
// the engine cycle reaches at (two cycles past the resume, by which
// point every pass that could stage old-ID tracks has been awaited).
type retiredID struct {
	id   int
	sess *session
	at   int
}

// abort closes the connection and releases the writer immediately.
func (s *session) abort() {
	s.once.Do(func() {
		close(s.done)
		s.conn.Close()
	})
}

// kill marks the session dead (no further enqueues) and aborts it.
func (s *session) kill() {
	s.sendMu.Lock()
	s.dead = true
	s.sendMu.Unlock()
	s.abort()
}

// enqueue hands a burst to the writer without blocking. queued=false
// with overflow=true means the queue is full (shed the session);
// queued=false with overflow=false means the session is already dead or
// finished and the caller should just release the burst.
func (s *session) enqueue(b *burst) (queued, overflow bool) {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if s.dead || s.finished {
		return false, false
	}
	select {
	case s.sendq <- b:
		return true, false
	default:
		return false, true
	}
}

// closeQueue ends the graceful-finish path: after the final burst is
// enqueued the queue closes, the writer flushes and hangs up. Dead
// sessions skip the close — their writer exits via done and drains.
func (s *session) closeQueue() {
	s.sendMu.Lock()
	if !s.dead && !s.finished {
		s.finished = true
		close(s.sendq)
	} else {
		s.finished = true
	}
	s.sendMu.Unlock()
}

// New starts listening and, when a Clock is configured, begins pacing.
func New(opts Options) (*NetServer, error) {
	if opts.Server == nil {
		return nil, errors.New("netserve: Options.Server is required")
	}
	if opts.SendQueue <= 0 {
		opts.SendQueue = defaultSendQueue
	}
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = defaultWriteTimeout
	}
	addr := opts.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netserve: listen: %w", err)
	}
	srv := opts.Server
	cycle := srv.CycleTime()
	trackSize := int(srv.Farm().Params().TrackSize)
	burstN := int(math.Round(cycle.Seconds() * srv.Rate().BytesPerSecond() / float64(trackSize)))
	if burstN < 1 {
		burstN = 1
	}
	ns := &NetServer{
		opts:       opts,
		srv:        srv,
		ln:         ln,
		cycleTime:  cycle,
		burst:      burstN,
		trackSize:  trackSize,
		groupWidth: srv.GroupWidth(),
		wheel:      NewTimerWheel(wheelTick, wheelSlots),
		hbConns:    make(map[net.Conn]struct{}),
		batches:    make(map[string]*titleBatch),
		drained:    make(chan struct{}),
		stop:       make(chan struct{}),
	}
	ns.sessions.init()
	ns.burstPool.New = func() any { return new(burst) }
	ns.sharedPool.New = func() any { return new(sharedFrames) }
	ns.ctrlPool.New = func() any { b := make([]byte, 0, 64); return &b }
	ns.cond = sync.NewCond(&ns.mu)
	m := srv.Metrics()
	ns.tracksSent = m.Counter("net_tracks_sent")
	ns.bytesSent = m.Counter("net_bytes_sent")
	ns.hiccupsSent = m.Counter("net_hiccups_sent")
	ns.mergedTracks = m.Counter("net_merged_tracks")
	ns.batchedStarts = m.Counter("net_batched_starts")
	ns.batchRuns = m.Counter("net_batch_runs")
	ns.batchWaitMs = m.Histogram("net_batch_wait_ms", 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000)
	usBounds := []int64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000}
	ns.phaseRead = m.Histogram("pipe_read_us", usBounds...)
	ns.phaseStage = m.Histogram("pipe_stage_us", usBounds...)
	ns.phaseFlush = m.Histogram("pipe_flush_us", usBounds...)
	ns.phaseOverlap = m.Histogram("pipe_overlap_pct", 0, 10, 25, 50, 75, 90)
	for w := range ns.stagers {
		ns.stagers[w] = make(chan *stagePass, 2) // ≥ the pipeline depth: dispatch never blocks
		ns.wg.Add(1)
		go ns.stageWorker(w)
	}
	ns.wg.Add(1)
	go ns.acceptLoop()
	if opts.Clock != nil {
		ns.wg.Add(1)
		go ns.paceLoop()
	}
	return ns, nil
}

// Addr returns the bound listen address.
func (ns *NetServer) Addr() net.Addr { return ns.ln.Addr() }

// CycleTime returns the transmission cycle length.
func (ns *NetServer) CycleTime() time.Duration { return ns.cycleTime }

// Burst returns k′: tracks shipped to each stream per transmission
// cycle.
func (ns *NetServer) Burst() int { return ns.burst }

// Sessions returns the number of connected, admitted sessions.
func (ns *NetServer) Sessions() int { return ns.sessions.len() }

// PendingStarts reports connections parked in flash-crowd admission
// batches, waiting for their title's window to flush at a cycle
// boundary (Options.BatchCycles).
func (ns *NetServer) PendingStarts() int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.pendingWaiters
}

// NodeID returns this node's cluster identity (empty standalone).
func (ns *NetServer) NodeID() string { return ns.opts.NodeID }

// SetView installs a membership view. Stale views (number at or below
// the held one) are ignored, so out-of-order heartbeats cannot roll the
// node backward; the freshest view wins regardless of arrival order. If
// the new view marks this node draining, the node stops admitting.
func (ns *NetServer) SetView(v *cluster.View) {
	if v == nil {
		return
	}
	ns.mu.Lock()
	if ns.view != nil && v.Number <= ns.view.Number {
		ns.mu.Unlock()
		return
	}
	ns.view = v.Clone()
	m, ok := ns.view.Member(ns.opts.NodeID)
	startDrain := ok && m.State == cluster.StateDraining && !ns.draining
	if startDrain {
		ns.beginDrainLocked()
	}
	ns.mu.Unlock()
	if startDrain {
		ns.cond.Broadcast()
	}
}

// View returns a copy of the node's current membership view, or nil if
// none has been installed (standalone operation).
func (ns *NetServer) View() *cluster.View {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.view == nil {
		return nil
	}
	return ns.view.Clone()
}

// StreamProgress reports the back end's delivery progress for a stream.
func (ns *NetServer) StreamProgress(id int) (next, total int, ok bool) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.srv.StreamProgress(id)
}

// FailDisk injects a drive failure at the next cycle boundary.
func (ns *NetServer) FailDisk(id int) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.srv.FailDisk(id)
}

// RepairDisk replaces a failed drive (offline rebuild).
func (ns *NetServer) RepairDisk(id int) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.srv.RepairDisk(id)
}

// StartOnlineRebuild begins a budgeted online rebuild of a drive.
func (ns *NetServer) StartOnlineRebuild(id, readBudget int) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.srv.StartOnlineRebuild(id, readBudget)
}

// ScheduleFailure arranges for drive id to fail at the start of the
// given engine cycle.
func (ns *NetServer) ScheduleFailure(cycle, id int) {
	ns.scheduleEvent(cycle, fmt.Sprintf("fail disk %d", id), func() error { return ns.srv.FailDisk(id) })
}

// ScheduleRepair arranges an offline repair of drive id at the given
// cycle.
func (ns *NetServer) ScheduleRepair(cycle, id int) {
	ns.scheduleEvent(cycle, fmt.Sprintf("repair disk %d", id), func() error { return ns.srv.RepairDisk(id) })
}

// ScheduleRebuild arranges an online rebuild of drive id at the given
// cycle.
func (ns *NetServer) ScheduleRebuild(cycle, id, readBudget int) {
	ns.scheduleEvent(cycle, fmt.Sprintf("rebuild disk %d", id), func() error { return ns.srv.StartOnlineRebuild(id, readBudget) })
}

func (ns *NetServer) scheduleEvent(cycle int, desc string, apply func() error) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.schedule = append(ns.schedule, scheduledEvent{cycle: cycle, desc: desc, apply: apply})
	ns.cond.Broadcast()
}

// BeginDrain stops admitting new sessions without waiting: in-flight
// streams keep running to completion (watch Drained, or use Drain to
// block). A live reconfiguration drains a node this way — the
// coordinator flips the node to draining in a view, the node stops
// taking placements, and once its last stream finishes it leaves the
// cluster with nothing dropped.
func (ns *NetServer) BeginDrain() {
	ns.mu.Lock()
	ns.beginDrainLocked()
	ns.mu.Unlock()
	ns.cond.Broadcast()
}

func (ns *NetServer) beginDrainLocked() {
	if ns.draining {
		return
	}
	ns.draining = true
	ns.srv.BeginDrain()
	// Parked flash-crowd waiters would need a fresh admission; refuse
	// them now rather than strand them until shutdown.
	for title, tb := range ns.batches {
		delete(ns.batches, title)
		for _, w := range tb.waiters {
			w.reject = Reject{Reason: "draining"}
			ns.pendingWaiters--
			close(w.done)
		}
	}
	ns.expelPausedLocked()
	ns.checkDrainedLocked()
}

// expelPausedLocked ends every paused session with a BYE: a paused
// session holds no engine stream and would otherwise never finish, so a
// drain would wait on it forever. Its position is lost — a client that
// wants to continue resumes on another node (or re-admits later).
func (ns *NetServer) expelPausedLocked() {
	var expelled []*session
	ns.sessions.forEach(func(sess *session) {
		if sess.paused {
			expelled = append(expelled, sess)
		}
	})
	for _, sess := range expelled {
		if !ns.sessions.remove(sess) {
			continue
		}
		b := ns.newBurst()
		b.frames = append(b.frames, outFrame{ctrl: byeShutdown})
		if queued, _ := sess.enqueue(b); !queued {
			ns.releaseBurst(b)
		}
		sess.paused = false
		ns.pausedSessions--
		sess.closeQueue()
	}
	if len(expelled) > 0 {
		ns.gaugeSessions()
		ns.gaugePaused()
	}
}

// Drain stops admitting new sessions and waits until every in-flight
// stream finishes (the graceful half of shutdown; Close is the hard
// half). In manual mode the caller must keep stepping cycles for the
// drain to make progress.
func (ns *NetServer) Drain(timeout time.Duration) error {
	ns.BeginDrain()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-ns.drained:
		return nil
	case <-t.C:
		return fmt.Errorf("netserve: drain timed out after %v with %d sessions live", timeout, ns.Sessions())
	}
}

// Draining reports whether admissions have stopped (Drain/BeginDrain,
// or a view push that marked this node draining).
func (ns *NetServer) Draining() bool {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.draining
}

// Drained reports whether a drain has completed.
func (ns *NetServer) Drained() bool {
	select {
	case <-ns.drained:
		return true
	default:
		return false
	}
}

func (ns *NetServer) checkDrainedLocked() {
	if !ns.draining {
		return
	}
	if ns.sessions.len() == 0 && ns.srv.Engine().Active() == 0 {
		select {
		case <-ns.drained:
		default:
			close(ns.drained)
		}
	}
}

// Close tears everything down: the listener, the pacer, every live
// connection, the timer wheel. Pending frames are not flushed — call
// Drain first for a graceful exit.
func (ns *NetServer) Close() error {
	ns.mu.Lock()
	if ns.closed {
		ns.mu.Unlock()
		return nil
	}
	ns.closed = true
	close(ns.stop)
	err := ns.ln.Close()
	for conn := range ns.hbConns {
		conn.Close()
		delete(ns.hbConns, conn)
	}
	ns.mu.Unlock()
	ns.sessions.drainAll(func(sess *session) { sess.kill() })
	ns.gaugeSessions()
	ns.cond.Broadcast()
	ns.wg.Wait()
	ns.wheel.Close()
	return err
}

func (ns *NetServer) logf(format string, args ...any) {
	if ns.opts.Logf != nil {
		ns.opts.Logf(format, args...)
	}
}

// ---- burst staging and recycling ----

func (ns *NetServer) newBurst() *burst { return ns.burstPool.Get().(*burst) }

// releaseBurst drops the burst's hold on its shared run (if any),
// releases every private retained track buffer, returns pooled control
// buffers, and recycles the container with its header slab. Safe on nil.
func (ns *NetServer) releaseBurst(b *burst) {
	if b == nil {
		return
	}
	if b.shared != nil {
		ns.releaseShared(b.shared)
		b.shared = nil
	}
	for i := range b.frames {
		f := &b.frames[i]
		if f.ref != nil {
			f.ref.Release()
		}
		if f.ctrlp != nil {
			*f.ctrlp = f.ctrl[:0]
			ns.ctrlPool.Put(f.ctrlp)
		}
		b.frames[i] = outFrame{}
	}
	b.frames = b.frames[:0]
	b.hdrs = b.hdrs[:0]
	for i := range b.bufs {
		b.bufs[i] = nil
	}
	b.bufs = b.bufs[:0]
	ns.burstPool.Put(b)
}

// releaseShared drops one holder of a shared run. The staging pass holds
// a reference from the moment the run is created until the pass
// completes, and every burst's hold is counted before that release, so
// the decrement that reaches zero is genuinely the last one; it releases
// the run's refs and recycles the container with its header slab. Called
// from writer goroutines and shard workers, hence the atomic.
func (ns *NetServer) releaseShared(sf *sharedFrames) {
	if sf.holders.Add(-1) != 0 {
		return
	}
	for i := range sf.frames {
		f := &sf.frames[i]
		if f.ref != nil {
			f.ref.Release()
		}
		sf.frames[i] = outFrame{}
	}
	sf.frames = sf.frames[:0]
	sf.hdrs = sf.hdrs[:0]
	ns.sharedPool.Put(sf)
}

// runMatches verifies a delivered run is frame-for-frame the same
// physical payloads as an already-staged shared run. Pointer equality on
// the refs is exact: the engine's read merging hands sharers the same
// buffers in the same order, and distinct reads never alias a live ref.
func runMatches(sf *sharedFrames, run []sched.Delivery) bool {
	if len(sf.frames) != len(run) {
		return false
	}
	for i := range run {
		if sf.frames[i].ref != run[i].Buf {
			return false
		}
	}
	return true
}

// sharedFor finds or stages the pass's shared frames for a merged run.
// The pass table is shared across shard workers (merged runs span
// stream IDs, hence shards), so lookup-or-create runs under sharedMu;
// a newly created run starts with one holder — the pass's own, released
// when the pass completes — so a concurrent writer finishing early can
// never tear the run down while another shard is still attaching.
func (p *stagePass) sharedFor(ns *NetServer, run []sched.Delivery) (sf *sharedFrames, merged bool) {
	key := run[0].Buf
	p.sharedMu.Lock()
	defer p.sharedMu.Unlock()
	if sf := p.shared[key]; sf != nil {
		if runMatches(sf, run) {
			return sf, true
		}
		// A different run under the same first buffer cannot happen with
		// the engine's merging; if it ever does, drop the pass's hold on
		// the superseded entry rather than leak it.
		ns.releaseShared(sf)
	}
	sf = ns.sharedPool.Get().(*sharedFrames)
	for i := range run {
		d := &run[i]
		var h []byte
		sf.hdrs, h = appendTrackHeader(sf.hdrs, d.Track, len(d.Data))
		d.Buf.Retain()
		sf.frames = append(sf.frames, outFrame{hdr: h, payload: d.Data, ref: d.Buf})
	}
	sf.holders.Store(1)
	p.shared[key] = sf
	return sf, false
}

// stageRun stages one stream's contiguous delivered run for this cycle.
// Runs whose payloads carry refcounts are staged once per distinct run
// and shared by every session delivering the same buffers — one set of
// headers, retains, and frame bookkeeping for the whole title group
// instead of O(sessions) copies of it. Shard worker only.
func (ns *NetServer) stageRun(p *stagePass, sc *stageScratch, sess *session, run []sched.Delivery) {
	if len(run) == 0 {
		return
	}
	b := ns.burstFor(sc, sess)
	if run[0].Buf == nil || b.shared != nil {
		// No refcount to share (copy-path engine), or the session already
		// carries a shared run this cycle (engines deliver one contiguous
		// run per stream per cycle; tolerate more): stage privately.
		for i := range run {
			ns.stageTrack(sc, sess, &run[i])
		}
		return
	}
	sf, merged := p.sharedFor(ns, run)
	if merged {
		ns.mergedTracks.Add(int64(len(run)))
	}
	sf.holders.Add(1)
	b.shared = sf
}

// burstFor returns the session's in-progress burst for this pass,
// opening one (and remembering the session for the flush sweep) on
// first use. Shard worker only: a session belongs to exactly one shard,
// and each worker consumes passes in dispatch order, so sess.cur is
// single-threaded even with two passes in flight.
func (ns *NetServer) burstFor(sc *stageScratch, sess *session) *burst {
	if sess.cur == nil {
		sess.cur = ns.newBurst()
		sc.touched = append(sc.touched, sess)
	}
	return sess.cur
}

// stageTrack adds one delivered track to the session's pass burst,
// retaining the engine's refcounted buffer instead of copying it. The
// reference is released after the vectored write completes (or when the
// burst is discarded on shed/teardown).
func (ns *NetServer) stageTrack(sc *stageScratch, sess *session, d *sched.Delivery) {
	b := ns.burstFor(sc, sess)
	var h []byte
	b.hdrs, h = appendTrackHeader(b.hdrs, d.Track, len(d.Data))
	f := outFrame{hdr: h, payload: d.Data}
	if d.Buf != nil {
		d.Buf.Retain()
		f.ref = d.Buf
	} else {
		// No refcount available (an engine outside the arena path):
		// fall back to copying at the socket boundary.
		f.payload = append([]byte(nil), d.Data...)
	}
	b.frames = append(b.frames, f)
}

// stageCtrl adds a control frame to the session's pass burst.
func (ns *NetServer) stageCtrl(sc *stageScratch, sess *session, f outFrame) {
	b := ns.burstFor(sc, sess)
	b.frames = append(b.frames, f)
}

// flushStaged hands the session's staged burst to its writer. Overflow
// sheds the session; a dead session's burst is simply released. Runs on
// shard workers, outside the engine lock — only the shed path takes it.
func (ns *NetServer) flushStaged(sess *session) {
	b := sess.cur
	sess.cur = nil
	if b == nil || (len(b.frames) == 0 && b.shared == nil) {
		ns.releaseBurst(b)
		return
	}
	// Tally before the hand-off: the writer may release b immediately.
	// Shared-run tracks count once per holder — each session really does
	// send them on its own socket.
	tracks, nbytes := 0, 0
	if b.shared != nil {
		for i := range b.shared.frames {
			tracks++
			nbytes += len(b.shared.frames[i].payload)
		}
	}
	for i := range b.frames {
		if b.frames[i].hdr != nil {
			tracks++
			nbytes += len(b.frames[i].payload)
		}
	}
	queued, overflow := sess.enqueue(b)
	switch {
	case queued:
		ns.tracksSent.Add(int64(tracks))
		ns.bytesSent.Add(int64(nbytes))
	case overflow:
		ns.releaseBurst(b)
		ns.mu.Lock()
		ns.shedLocked(sess)
		ns.mu.Unlock()
	default:
		ns.releaseBurst(b)
	}
}

// ---- accept / per-connection handling ----

func (ns *NetServer) acceptLoop() {
	defer ns.wg.Done()
	for {
		conn, err := ns.ln.Accept()
		if err != nil {
			select {
			case <-ns.stop:
			default:
				ns.logf("netserve: accept: %v", err)
			}
			return
		}
		ns.srv.Metrics().Counter("net_conns_accepted").Inc()
		ns.wg.Add(1)
		go ns.handleConn(conn)
	}
}

// handleConn runs the HELLO/ADMIT handshake, then becomes the
// connection's reader until the client hangs up.
func (ns *NetServer) handleConn(conn net.Conn) {
	defer ns.wg.Done()
	if ns.opts.WriteBufferBytes > 0 {
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetWriteBuffer(ns.opts.WriteBufferBytes)
		}
	}
	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	typ, payload, err := readFrame(conn)
	if err != nil || typ != frameHello || string(payload) != protocolMagic {
		conn.Close()
		return
	}
	if err := writeFrame(conn, frameHello, []byte(protocolMagic)); err != nil {
		conn.Close()
		return
	}
	typ, payload, err = readFrame(conn)
	if err != nil {
		conn.Close()
		return
	}
	var title string
	var startGroup int
	switch typ {
	case frameAdmit:
		title = string(payload)
	case frameResume:
		var req ResumeReq
		if err := json.Unmarshal(payload, &req); err != nil {
			conn.Close()
			return
		}
		title = req.Title
		if w := ns.groupWidth; w > 0 && req.NextTrack > 0 {
			// Resume at the enclosing parity-group boundary: a stream
			// admitted at group g is indistinguishable from one that
			// aged there, so every per-cluster invariant holds.
			startGroup = req.NextTrack / w
		}
	case frameView:
		// This connection is a coordinator heartbeat channel, not a
		// session: consume views until the coordinator hangs up (or
		// Close cuts the channel).
		ns.mu.Lock()
		closed := ns.closed
		if !closed {
			ns.hbConns[conn] = struct{}{}
		}
		ns.mu.Unlock()
		if !closed {
			ns.heartbeatConn(conn, payload)
			ns.mu.Lock()
			delete(ns.hbConns, conn)
			ns.mu.Unlock()
		}
		conn.Close()
		return
	default:
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})

	var sess *session
	var reject Reject
	if typ == frameAdmit && ns.opts.BatchCycles > 0 {
		sess, reject = ns.admitBatched(conn, title)
	} else {
		sess, reject = ns.admit(conn, title, startGroup)
	}
	if sess == nil {
		_ = writeJSONFrame(conn, frameReject, reject)
		conn.Close()
		return
	}
	ns.wg.Add(1)
	go ns.writeLoop(sess)

	// Reader: after admission the client speaks BYE and the VCR verbs;
	// any read error means it hung up. Either way the session (and its
	// back-end stream, if still live) is torn down on exit.
	for {
		typ, payload, err := readFrame(conn)
		if err != nil || typ == frameBye {
			ns.dropSession(sess, "client gone")
			return
		}
		switch typ {
		case framePause:
			ns.handlePause(sess)
		case frameResumePlay:
			ns.handleResumePlay(sess)
		case frameFF:
			rate, perr := parseFFRate(payload)
			if perr != nil {
				ns.dropSession(sess, "malformed FF")
				return
			}
			ns.handleFF(sess, rate)
		case frameRewind:
			track, perr := parseRewindTrack(payload)
			if perr != nil {
				ns.dropSession(sess, "malformed REWIND")
				return
			}
			ns.handleRewind(sess, track)
		}
	}
}

// sendCtrl enqueues one prebuilt control frame as its own burst — VCR
// replies ride the session's ordered send queue rather than racing the
// writer on the socket. Overflow just drops the reply (the session is
// SendQueue cycles behind; its data bursts will shed it).
func (ns *NetServer) sendCtrl(sess *session, frame []byte) {
	b := ns.newBurst()
	b.frames = append(b.frames, outFrame{ctrl: frame})
	if queued, _ := sess.enqueue(b); !queued {
		ns.releaseBurst(b)
	}
}

// vcrOKCtrl builds a VCR-OK control frame.
func vcrOKCtrl(verb string, id, next, rate int) []byte {
	return mustCtrlFrame(frameVcrOK, VcrOK{Verb: verb, StreamID: id, NextTrack: next, Rate: rate})
}

// vcrRejectCtrl builds a post-admission REJECT control frame, with the
// cycle-granularity Retry-After hint when the refusal is transient.
func (ns *NetServer) vcrRejectCtrl(err error) []byte {
	rej := Reject{Reason: err.Error()}
	if errors.Is(err, server.ErrRejected) {
		ms := ns.cycleTime.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		rej.RetryAfterMillis = ms
	}
	return mustCtrlFrame(frameReject, rej)
}

// handlePause parks a playing session: its engine stream is cancelled
// (the slot returns to the admission pool) and its next owed track is
// recorded for re-admission on resume. Pausing while paused re-acks.
func (ns *NetServer) handlePause(sess *session) {
	ns.mu.Lock()
	if ns.closed {
		ns.mu.Unlock()
		return
	}
	if ns.draining {
		// A paused session could never resume here; keep it playing.
		ns.mu.Unlock()
		ns.sendCtrl(sess, ns.vcrRejectCtrl(errors.New("draining")))
		return
	}
	if sess.paused {
		next := sess.resumeTrack
		ns.mu.Unlock()
		ns.sendCtrl(sess, vcrOKCtrl("pause", 0, next, 1))
		return
	}
	next, _, ok := ns.srv.StreamProgress(sess.id)
	if !ok {
		// The stream already finished or terminated; the BYE is on its
		// way to the client and there is nothing to pause.
		ns.mu.Unlock()
		return
	}
	_ = ns.srv.Cancel(sess.id)
	sess.paused = true
	sess.rate = 1
	sess.resumeTrack = next
	ns.pausedSessions++
	ns.srv.Metrics().Counter("net_vcr_pauses").Inc()
	ns.gaugePaused()
	ns.mu.Unlock()
	ns.sendCtrl(sess, vcrOKCtrl("pause", 0, next, 1))
}

// resumeSessionLocked re-admits a paused session at the parity-group
// floor of track, rekeying its table entry to the new stream ID. The
// old ID stays registered as an alias for two cycles: a still-staging
// pipeline pass may hold pre-pause deliveries under it, and dropping
// the key early would strand those tracks. Returns the VCR-OK to send,
// or the REJECT when the farm cannot take the stream back (the session
// stays paused; Retry-After rides the refusal).
func (ns *NetServer) resumeSessionLocked(sess *session, verb string, track, rate int) []byte {
	startGroup := 0
	if ns.groupWidth > 0 {
		startGroup = track / ns.groupWidth
	}
	id, _, err := ns.srv.RequestAt(sess.title, startGroup)
	if err == nil && rate > 1 {
		if rerr := ns.srv.SetStreamRate(id, rate); rerr != nil {
			_ = ns.srv.Cancel(id)
			err = rerr
		}
	}
	if err != nil {
		ns.srv.Metrics().Counter("net_vcr_rejects").Inc()
		return ns.vcrRejectCtrl(err)
	}
	oldID := sess.id
	sess.id = id
	ns.sessions.put(sess)
	ns.retired = append(ns.retired, retiredID{id: oldID, sess: sess, at: ns.srv.Engine().Cycle() + 2})
	if sess.paused {
		ns.pausedSessions--
	}
	sess.paused = false
	sess.rate = rate
	sess.resumeTrack = 0
	ns.gaugePaused()
	ns.cond.Broadcast() // the pacer may be idling on a paused-only farm
	return vcrOKCtrl(verb, id, startGroup*ns.groupWidth, rate)
}

// handleResumePlay resumes a paused session at its held position
// (re-admission, Retry-After on refusal) or drops a fast-forwarding
// session back to normal rate.
func (ns *NetServer) handleResumePlay(sess *session) {
	ns.mu.Lock()
	if ns.closed {
		ns.mu.Unlock()
		return
	}
	var reply []byte
	if sess.paused {
		if ns.draining {
			reply = ns.vcrRejectCtrl(errors.New("draining"))
		} else {
			reply = ns.resumeSessionLocked(sess, "resume", sess.resumeTrack, 1)
			if bytesIsVcrOK(reply) {
				ns.srv.Metrics().Counter("net_vcr_resumes").Inc()
			}
		}
	} else {
		if sess.rate > 1 {
			if err := ns.srv.SetStreamRate(sess.id, 1); err == nil {
				sess.rate = 1
			}
		}
		next, _, _ := ns.srv.StreamProgress(sess.id)
		reply = vcrOKCtrl("resume", sess.id, next, 1)
	}
	ns.mu.Unlock()
	ns.sendCtrl(sess, reply)
}

// handleFF sets a session's playback multiplier. On a playing session
// it is a rate change, k′-accounted by the engine: a request the
// admission bound cannot absorb is refused with Retry-After instead of
// silently degrading every stream's continuity. On a paused session it
// resumes directly into fast-forward (re-admission plus rate grant,
// all-or-nothing).
func (ns *NetServer) handleFF(sess *session, rate int) {
	ns.mu.Lock()
	if ns.closed {
		ns.mu.Unlock()
		return
	}
	var reply []byte
	if sess.paused {
		if ns.draining {
			reply = ns.vcrRejectCtrl(errors.New("draining"))
		} else {
			reply = ns.resumeSessionLocked(sess, "ff", sess.resumeTrack, rate)
		}
	} else if err := ns.srv.SetStreamRate(sess.id, rate); err != nil {
		ns.srv.Metrics().Counter("net_vcr_rejects").Inc()
		reply = ns.vcrRejectCtrl(err)
	} else {
		sess.rate = rate
		next, _, _ := ns.srv.StreamProgress(sess.id)
		reply = vcrOKCtrl("ff", sess.id, next, rate)
	}
	if reply != nil && bytesIsVcrOK(reply) {
		ns.srv.Metrics().Counter("net_vcr_ffs").Inc()
	}
	ns.mu.Unlock()
	ns.sendCtrl(sess, reply)
}

// bytesIsVcrOK reports whether a prebuilt control frame is a VCR-OK.
func bytesIsVcrOK(frame []byte) bool { return len(frame) > 0 && frame[0] == frameVcrOK }

// handleRewind jumps a session's position backward (or forward — the
// wire carries an absolute target track). A paused session just moves
// its held position; a playing one is cancelled and re-admitted at the
// target's parity-group floor, dropping to normal rate. If the farm
// cannot take the re-admission the session is left paused at the target
// with a Retry-After refusal — the position is not lost.
func (ns *NetServer) handleRewind(sess *session, track int) {
	ns.mu.Lock()
	if ns.closed {
		ns.mu.Unlock()
		return
	}
	var reply []byte
	if sess.paused {
		sess.resumeTrack = track
		sess.rate = 1
		reply = vcrOKCtrl("rewind", 0, track, 1)
		ns.srv.Metrics().Counter("net_vcr_rewinds").Inc()
	} else {
		_, total, ok := ns.srv.StreamProgress(sess.id)
		if !ok {
			ns.mu.Unlock()
			return
		}
		if track >= total {
			track = total - 1
		}
		if track < 0 {
			track = 0
		}
		_ = ns.srv.Cancel(sess.id)
		sess.paused = true
		sess.rate = 1
		sess.resumeTrack = track
		ns.pausedSessions++
		ns.gaugePaused()
		if ns.draining {
			reply = ns.vcrRejectCtrl(errors.New("draining"))
		} else {
			reply = ns.resumeSessionLocked(sess, "rewind", track, 1)
		}
		if bytesIsVcrOK(reply) {
			ns.srv.Metrics().Counter("net_vcr_rewinds").Inc()
		}
	}
	ns.mu.Unlock()
	ns.sendCtrl(sess, reply)
}

// heartbeatConn serves a coordinator's persistent VIEW channel: install
// each pushed view, answer with this node's load. The first frame's
// payload arrives already read by handleConn.
func (ns *NetServer) heartbeatConn(conn net.Conn, payload []byte) {
	for {
		var v cluster.View
		if err := json.Unmarshal(payload, &v); err != nil {
			return
		}
		ns.SetView(&v)
		ack := ViewAck{NodeID: ns.opts.NodeID, Sessions: ns.Sessions()}
		ns.mu.Lock()
		ack.Active = ns.srv.Engine().Active()
		if ns.view != nil {
			ack.View = ns.view.Number
		}
		ns.mu.Unlock()
		if err := writeJSONFrame(conn, frameView, ack); err != nil {
			return
		}
		conn.SetReadDeadline(time.Now().Add(helloTimeout))
		typ, p, err := readFrame(conn)
		if err != nil || typ != frameView {
			return
		}
		payload = p
	}
}

// admit asks the back end for a stream and registers the session. A nil
// session means rejection, with the Reject to send. startGroup > 0 is a
// RESUME admission: the stream starts at that parity-group boundary.
func (ns *NetServer) admit(conn net.Conn, title string, startGroup int) (*session, Reject) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.closed || ns.draining {
		return nil, Reject{Reason: "draining"}
	}
	return ns.admitLocked(conn, title, startGroup)
}

// admitBatched parks a fresh ADMIT in its title's flash-crowd batch and
// blocks until the window closes and the batch flushes at a cycle
// boundary (StepCycle's flushBatchesLocked admits the whole cohort
// under one lock hold, so the members' engine streams run in lockstep
// and merge their reads).
func (ns *NetServer) admitBatched(conn net.Conn, title string) (*session, Reject) {
	ns.mu.Lock()
	if ns.closed || ns.draining {
		ns.mu.Unlock()
		return nil, Reject{Reason: "draining"}
	}
	w := &batchWaiter{conn: conn, arrival: time.Now(), done: make(chan struct{})}
	tb := ns.batches[title]
	if tb == nil {
		tb = &titleBatch{due: ns.srv.Engine().Cycle() + ns.opts.BatchCycles}
		ns.batches[title] = tb
	}
	tb.waiters = append(tb.waiters, w)
	ns.pendingWaiters++
	ns.mu.Unlock()
	ns.cond.Broadcast() // the pacer may be idling; cycles must now run
	select {
	case <-w.done:
		return w.sess, w.reject
	case <-ns.stop:
		select {
		case <-w.done:
			// The flush raced shutdown and won; use its answer (a live
			// session here is torn down by Close's drainAll momentarily).
			return w.sess, w.reject
		default:
			return nil, Reject{Reason: "shutdown"}
		}
	}
}

// flushBatchesLocked admits every batch whose window has closed. Runs
// under mu immediately before the engine Step, so the cohort's streams
// are admitted at the same cycle boundary — the lockstep that lets the
// engine merge their reads and netserve share one staged run.
func (ns *NetServer) flushBatchesLocked(cycle int) {
	for title, tb := range ns.batches {
		if tb.due > cycle {
			continue
		}
		delete(ns.batches, title)
		ns.batchRuns.Inc()
		admitted := int64(0)
		for _, w := range tb.waiters {
			w.sess, w.reject = ns.admitLocked(w.conn, title, 0)
			if w.sess != nil {
				admitted++
			}
			ns.batchWaitMs.Observe(time.Since(w.arrival).Milliseconds())
			ns.pendingWaiters--
			close(w.done)
		}
		ns.batchedStarts.Add(admitted)
	}
}

// admitLocked is admit's core, shared with the batch flusher; the
// caller holds mu and has already checked closed/draining.
func (ns *NetServer) admitLocked(conn net.Conn, title string, startGroup int) (*session, Reject) {
	id, _, err := ns.srv.RequestAt(title, startGroup)
	if err != nil {
		ns.srv.Metrics().Counter("net_rejects").Inc()
		rej := Reject{Reason: err.Error()}
		if errors.Is(err, server.ErrRejected) {
			// Capacity frees up at cycle granularity: one cycle of real
			// time (at least a millisecond) is the natural retry hint.
			ms := ns.cycleTime.Milliseconds()
			if ms < 1 {
				ms = 1
			}
			rej.RetryAfterMillis = ms
		}
		return nil, rej
	}
	_, total, _ := ns.srv.StreamProgress(id)
	size, _ := ns.srv.Library().Size(title)
	sess := &session{
		id:    id,
		title: title,
		conn:  conn,
		sendq: make(chan *burst, ns.opts.SendQueue),
		done:  make(chan struct{}),
	}
	sess.wt = ns.wheel.NewTimer(func() {
		// A vectored write outlived WriteTimeout: the socket is stalled.
		// Cutting the connection fails the write and the writer sheds
		// the session through the normal drop path.
		ns.srv.Metrics().Counter("net_write_timeouts").Inc()
		sess.abort()
	})
	ok, err := jsonFrame(frameAdmitOK, AdmitOK{
		StreamID:   id,
		Title:      title,
		TrackSize:  ns.trackSize,
		Tracks:     total,
		Size:       int(size),
		CycleNanos: ns.cycleTime.Nanoseconds(),
		Burst:      ns.burst,
		StartTrack: startGroup * ns.groupWidth,
		NodeID:     ns.opts.NodeID,
	})
	if err != nil {
		_ = ns.srv.Cancel(id)
		return nil, Reject{Reason: "internal: " + err.Error()}
	}
	hello := ns.newBurst()
	hello.frames = append(hello.frames, outFrame{ctrl: ok})
	if queued, _ := sess.enqueue(hello); !queued {
		ns.releaseBurst(hello) // unreachable on a fresh queue; be safe
	}
	ns.sessions.put(sess)
	ns.srv.Metrics().Counter("net_admits").Inc()
	ns.gaugeSessions()
	ns.cond.Broadcast()
	return sess, Reject{}
}

// writeLoop ships queued bursts onto the socket, one vectored write
// per burst. It exits when the queue closes (graceful finish: flush
// then hang up) or done closes (shed/shutdown: release what remains).
func (ns *NetServer) writeLoop(sess *session) {
	defer ns.wg.Done()
	for {
		select {
		case <-sess.done:
			ns.drainSendq(sess)
			return
		case b, ok := <-sess.sendq:
			if !ok {
				sess.abort() // tail flushed; hang up
				return
			}
			if err := ns.writeBurst(sess, b); err != nil {
				ns.srv.Metrics().Counter("net_write_errors").Inc()
				ns.dropSession(sess, "write error")
				ns.drainSendq(sess)
				return
			}
		}
	}
}

// writeBurst flattens the burst into an iovec list and writes it with
// one vectored write, supervised by the session's wheel timer. The
// burst (headers, refs, container) is recycled before returning.
func (ns *NetServer) writeBurst(sess *session, b *burst) error {
	bufs := b.bufs[:0]
	if b.shared != nil {
		// The shared run goes first: tracks were staged before control
		// frames, and every holder reads sf.frames concurrently but only
		// mutates its own bufs.
		for i := range b.shared.frames {
			f := &b.shared.frames[i]
			bufs = append(bufs, f.hdr, f.payload)
		}
	}
	for i := range b.frames {
		f := &b.frames[i]
		if f.ctrl != nil {
			bufs = append(bufs, f.ctrl)
		} else {
			bufs = append(bufs, f.hdr, f.payload)
		}
	}
	b.bufs = bufs
	sess.wt.Reset(ns.opts.WriteTimeout)
	start := time.Now()
	err := writeVectored(sess.conn, b.bufs)
	ns.phaseFlush.Observe(time.Since(start).Microseconds())
	sess.wt.Stop()
	ns.releaseBurst(b)
	return err
}

// writeVectored writes every buffer fully. On *net.TCPConn the batch
// goes through net.Buffers (one writev syscall for a typical burst);
// any other conn (test stubs, pipes) takes a manual loop that tolerates
// short writes returning n < len(buf) with a nil error — a contract
// violation the stdlib's generic consume path would turn into silent
// stream corruption.
func writeVectored(conn net.Conn, bufs net.Buffers) error {
	if tc, ok := conn.(*net.TCPConn); ok {
		_, err := bufs.WriteTo(tc)
		return err
	}
	for _, buf := range bufs {
		for len(buf) > 0 {
			n, err := conn.Write(buf)
			buf = buf[n:]
			if err != nil {
				return err
			}
			if n == 0 && len(buf) > 0 {
				return io.ErrShortWrite
			}
		}
	}
	return nil
}

// drainSendq releases every burst stranded in the queue after a shed,
// drop, or shutdown so their retained track buffers return to the
// arena. By the time it runs the session is dead (kill/dropSession
// happen before), so no new burst can be enqueued behind the drain.
func (ns *NetServer) drainSendq(sess *session) {
	for {
		select {
		case b, ok := <-sess.sendq:
			if !ok {
				return
			}
			ns.releaseBurst(b)
		default:
			return
		}
	}
}

// dropSession removes a session whose connection died and cancels its
// back-end stream if it is still live.
func (ns *NetServer) dropSession(sess *session, reason string) {
	if ns.sessions.remove(sess) {
		ns.mu.Lock()
		_ = ns.srv.Cancel(sess.id)
		if sess.paused {
			sess.paused = false
			ns.pausedSessions--
			ns.gaugePaused()
		}
		ns.checkDrainedLocked()
		ns.mu.Unlock()
		ns.gaugeSessions()
	}
	sess.kill()
	_ = reason
}

func (ns *NetServer) gaugeSessions() {
	ns.srv.Metrics().Gauge("net_sessions_active").Set(int64(ns.sessions.len()))
}

func (ns *NetServer) gaugePaused() {
	ns.srv.Metrics().Gauge("net_sessions_paused").Set(int64(ns.pausedSessions))
}

// ---- the cycle loop ----

// paceLoop drives cycles on the configured clock, idling (no busy spin)
// while nothing is admitted or scheduled.
func (ns *NetServer) paceLoop() {
	defer ns.wg.Done()
	for {
		ns.mu.Lock()
		for !ns.closed && ns.idleLocked() {
			ns.cond.Wait()
		}
		closed := ns.closed
		ns.mu.Unlock()
		if closed {
			return
		}
		if !ns.opts.Clock.Pace(ns.cycleTime, ns.stop) {
			return
		}
		if err := ns.StepCycle(); err != nil {
			ns.logf("netserve: step: %v", err)
			return
		}
	}
}

// idleLocked gates the pacer: with no sessions, no live streams, and no
// parked flash-crowd waiters there is nothing to transmit, so cycles
// stop (and with them the cycle counter scheduled fault events compare
// against — a failure scheduled for cycle 40 lands forty cycles into
// service, not into an idle farm). Parked waiters keep the pacer
// running: their batch flushes at a cycle boundary, so cycles must keep
// coming for the window to close.
func (ns *NetServer) idleLocked() bool {
	return ns.sessions.len() == 0 && ns.srv.Engine().Active() == 0 && ns.pendingWaiters == 0
}

// StepCycle runs one transmission cycle. Under the engine lock it
// applies due scheduled events and steps the engine (the read/XOR
// phase); the cycle's deliveries, hiccups, and completions are then
// staged and flushed by the shard workers as a pipelined pass, outside
// the lock, while the next StepCycle is free to run the engine again.
// The pipeline is two deep: before stepping cycle N, the driver waits
// for pass N−2 — the engine's double-buffered report keeps cycle N−1's
// buffers and report struct intact across exactly one further Step, so
// "pass N−1 may still be staging while the engine computes N" is the
// deepest overlap that never races a buffer release.
//
// In manual mode (no Clock) this is the only way cycles happen; with a
// Clock it also serves as a test hook. With Options.NoPipeline (or once
// draining, where callers poll completion state between steps) the call
// waits for its own pass, restoring the strictly serial loop.
func (ns *NetServer) StepCycle() error {
	ns.stepMu.Lock()
	defer ns.stepMu.Unlock()
	if p := ns.prvPass; p != nil {
		select {
		case <-p.done:
			ns.recyclePass(p)
		case <-ns.stop:
			return nil
		}
		ns.prvPass = nil
	}

	ns.mu.Lock()
	if ns.closed {
		ns.mu.Unlock()
		return nil
	}
	cycle := ns.srv.Engine().Cycle()
	// Retire resumed sessions' old stream-ID aliases once the passes
	// that might still stage under them have drained (the pipeline-depth
	// wait above guarantees it for entries two cycles old).
	keptIDs := ns.retired[:0]
	for _, r := range ns.retired {
		if r.at > cycle {
			keptIDs = append(keptIDs, r)
			continue
		}
		if ns.sessions.removeID(r.id, r.sess) {
			ns.gaugeSessions()
		}
	}
	ns.retired = keptIDs
	ns.flushBatchesLocked(cycle)
	kept := ns.schedule[:0]
	for _, ev := range ns.schedule {
		if ev.cycle > cycle {
			kept = append(kept, ev)
			continue
		}
		if err := ev.apply(); err != nil {
			ns.logf("netserve: scheduled %s at cycle %d: %v", ev.desc, cycle, err)
		}
	}
	ns.schedule = kept

	start := time.Now()
	rep, err := ns.srv.Step()
	if err != nil {
		ns.mu.Unlock()
		return err
	}
	stepDur := time.Since(start)
	draining := ns.draining
	ns.mu.Unlock()

	ns.phaseRead.Observe(stepDur.Microseconds())
	ns.observeOverlap(start, stepDur)
	if ns.reportHook != nil {
		ns.reportHook(rep.Clone())
	}

	mask := passShardMask(rep)
	p := ns.newPass(rep, mask)
	ns.prvPass, ns.curPass = ns.curPass, p
	if mask == 0 {
		// Idle cycle (common while a cohort drains its queues): nothing
		// to stage, so complete the pass inline rather than waking any
		// workers.
		ns.finishPass(p)
	} else {
		for w := range ns.stagers {
			if mask&(1<<uint(w)) != 0 {
				ns.stagers[w] <- p
			}
		}
	}
	if ns.opts.NoPipeline || draining {
		select {
		case <-p.done:
		case <-ns.stop:
		}
	}
	return nil
}

// observeOverlap records how much of the Step that just finished ran
// while the previous cycle's staging pass was still working — the
// pipeline's payoff, as a percentage of the Step. Called between the
// Step and the pass swap, so curPass is still cycle N−1's pass.
func (ns *NetServer) observeOverlap(start time.Time, stepDur time.Duration) {
	prev := ns.curPass
	if prev == nil {
		return
	}
	if prev.idle {
		// Nothing was staged last cycle, so there was nothing to overlap
		// with; recording 0 here would just dilute the payoff metric with
		// drain-spin cycles.
		return
	}
	overlapped := stepDur
	if doneAt := prev.doneAt.Load(); doneAt != 0 {
		// The pass finished mid-Step (or before it): overlap is the
		// leading slice of the Step, clamped to [0, stepDur].
		d := time.Duration(doneAt - start.UnixNano())
		if d < 0 {
			d = 0
		}
		if d < overlapped {
			overlapped = d
		}
	}
	pct := int64(100)
	if stepDur > 0 {
		pct = int64(100 * overlapped / stepDur)
	}
	ns.phaseOverlap.Observe(pct)
}

// newPass opens a staging pass over one cycle's report; pending is
// sized to the shard mask so only the dispatched workers are waited on.
func (ns *NetServer) newPass(rep *sched.CycleReport, mask uint32) *stagePass {
	p, _ := ns.passPool.Get().(*stagePass)
	if p == nil {
		p = &stagePass{shared: make(map[*buffer.Ref]*sharedFrames)}
	}
	p.rep = rep
	p.start = time.Now()
	p.doneAt.Store(0)
	p.idle = mask == 0
	p.pending.Store(int32(bits.OnesCount32(mask)))
	p.done = make(chan struct{})
	return p
}

// passShardMask returns the set of session shards a report touches.
// Dispatch wakes only those workers: on small cycles — a single
// stream, hiccup-only cycles, the idle steps while a cohort drains —
// most shards have nothing to do, and sixteen channel sends plus
// goroutine wakeups per cycle would dwarf the actual staging work.
func passShardMask(rep *sched.CycleReport) uint32 {
	var mask uint32
	for i := range rep.Delivered {
		mask |= 1 << (uint(rep.Delivered[i].StreamID) % sessionShards)
	}
	for i := range rep.Hiccups {
		mask |= 1 << (uint(rep.Hiccups[i].StreamID) % sessionShards)
	}
	for _, id := range rep.Finished {
		mask |= 1 << (uint(id) % sessionShards)
	}
	for _, id := range rep.Terminated {
		mask |= 1 << (uint(id) % sessionShards)
	}
	return mask
}

func (ns *NetServer) recyclePass(p *stagePass) {
	p.rep = nil
	ns.passPool.Put(p)
}

// stageWorker is one shard's staging goroutine: it consumes passes in
// dispatch order (preserving per-session burst order across cycles) and
// stages the slice of each cycle owed to its shard's sessions. On stop
// it finishes anything already dispatched so every pass completes.
func (ns *NetServer) stageWorker(w int) {
	defer ns.wg.Done()
	work := func(p *stagePass) {
		ns.stageShard(p, w)
		if p.pending.Add(-1) == 0 {
			ns.finishPass(p)
		}
	}
	for {
		select {
		case p := <-ns.stagers[w]:
			work(p)
		case <-ns.stop:
			for {
				select {
				case p := <-ns.stagers[w]:
					work(p)
				default:
					return
				}
			}
		}
	}
}

// stageShard stages one pass's deliveries, hiccups, and completions for
// the sessions of shard w, then flushes its touched sessions and closes
// finishing queues. Every worker scans the whole report — the per-entry
// shard test is a mask against a slice walk, far cheaper than building
// sixteen sub-lists under a lock — and Delivered is in stream order, so
// one stream's tracks form one contiguous run.
func (ns *NetServer) stageShard(p *stagePass, w int) {
	sc := &ns.scratch[w]
	rep := p.rep
	for i := 0; i < len(rep.Delivered); {
		id := rep.Delivered[i].StreamID
		j := i + 1
		for j < len(rep.Delivered) && rep.Delivered[j].StreamID == id {
			j++
		}
		if uint(id)%sessionShards == uint(w) {
			if sess := ns.sessions.get(id); sess != nil {
				ns.stageRun(p, sc, sess, rep.Delivered[i:j])
			}
		}
		i = j
	}
	for _, h := range rep.Hiccups {
		if uint(h.StreamID)%sessionShards != uint(w) {
			continue
		}
		sess := ns.sessions.get(h.StreamID)
		if sess == nil {
			continue
		}
		ns.stageCtrl(sc, sess, ns.hiccupFrame(h.Track, h.Reason))
		ns.hiccupsSent.Inc()
	}
	for _, id := range rep.Finished {
		if uint(id)%sessionShards == uint(w) {
			ns.stageFinish(sc, id, byeFinished)
		}
	}
	for _, id := range rep.Terminated {
		if uint(id)%sessionShards == uint(w) {
			ns.stageFinish(sc, id, byeTerminated)
		}
	}
	for _, sess := range sc.touched {
		ns.flushStaged(sess)
	}
	clearSessions(sc.touched)
	sc.touched = sc.touched[:0]
	for _, sess := range sc.finishing {
		sess.closeQueue()
	}
	clearSessions(sc.finishing)
	sc.finishing = sc.finishing[:0]
}

// finishPass runs on the last worker out of a pass: release the pass's
// holds on its shared runs, stamp the stage histogram and completion
// time, re-check drain completion (sessions may have finished or shed
// this pass), and wake anyone waiting on the pass.
func (ns *NetServer) finishPass(p *stagePass) {
	for key, sf := range p.shared {
		ns.releaseShared(sf)
		delete(p.shared, key)
	}
	if !p.idle {
		ns.phaseStage.Observe(time.Since(p.start).Microseconds())
	}
	p.doneAt.Store(time.Now().UnixNano())
	ns.mu.Lock()
	ns.checkDrainedLocked()
	ns.mu.Unlock()
	close(p.done)
}

// clearSessions drops pointers from a scratch list before truncation.
func clearSessions(list []*session) {
	for i := range list {
		list[i] = nil
	}
}

// Prebuilt BYE control frames for the graceful-finish paths: their
// contents never vary, so the cycle loop ships the same bytes every
// time instead of marshaling per session.
var (
	byeFinished   = mustCtrlFrame(frameBye, Bye{Reason: "finished"})
	byeTerminated = mustCtrlFrame(frameBye, Bye{Reason: "terminated"})
	byeShutdown   = mustCtrlFrame(frameBye, Bye{Reason: "shutdown"})
)

func mustCtrlFrame(typ byte, v any) []byte {
	buf, err := jsonFrame(typ, v)
	if err != nil {
		panic(err)
	}
	return buf
}

// hiccupFrame encodes a HICCUP control frame into a pooled buffer
// (returned to the pool when the burst releases), replacing a
// json.Marshal allocation per lost track on the staging path.
func (ns *NetServer) hiccupFrame(track int, reason string) outFrame {
	bp := ns.ctrlPool.Get().(*[]byte)
	buf := append((*bp)[:0], frameHiccup, 0, 0, 0, 0)
	buf = append(buf, `{"track":`...)
	buf = strconv.AppendInt(buf, int64(track), 10)
	buf = append(buf, `,"reason":`...)
	buf = strconv.AppendQuote(buf, reason)
	buf = append(buf, '}')
	binary.BigEndian.PutUint32(buf[1:frameHeaderLen], uint32(len(buf)-frameHeaderLen))
	*bp = buf
	return outFrame{ctrl: buf, ctrlp: bp}
}

// stageFinish ends a session gracefully: a BYE rides in the session's
// final burst, the session is unregistered, and after the flush sweep
// its queue closes so the writer flushes everything and hangs up.
func (ns *NetServer) stageFinish(sc *stageScratch, id int, bye []byte) {
	sess := ns.sessions.get(id)
	if sess == nil {
		return
	}
	ns.stageCtrl(sc, sess, outFrame{ctrl: bye})
	ns.sessions.remove(sess)
	ns.gaugeSessions()
	sc.finishing = append(sc.finishing, sess)
}

// shedLocked evicts a slow client: its queue overflowed, meaning the
// socket stalled for SendQueue cycles' worth of bursts. The stream is
// cancelled so its disk bandwidth and buffers return to the farm, and
// the connection is closed; other sessions never waited.
func (ns *NetServer) shedLocked(sess *session) {
	ns.logf("netserve: shedding stream %d (%s): send queue full", sess.id, sess.title)
	if ns.sessions.remove(sess) {
		_ = ns.srv.Cancel(sess.id)
		if sess.paused {
			sess.paused = false
			ns.pausedSessions--
			ns.gaugePaused()
		}
		ns.srv.Metrics().Counter("net_sessions_shed").Inc()
		ns.gaugeSessions()
	}
	sess.kill()
	ns.checkDrainedLocked()
}
