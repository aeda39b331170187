package hyracks

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"vxq/internal/frame"
	"vxq/internal/runtime"
)

// exchangeDepth is the per-consumer-partition frame buffer of the concurrent
// schedule's exchange channels: a few frames let a producer keep working
// while its consumer is busy with the last one, and the bound caps what an
// exchange holds at depth × frame size per consumer partition.
const exchangeDepth = 4

// RunStaged executes a job on the sequential schedule: one
// fragment-partition task at a time, every exchange materialized, scan
// morsels dealt round-robin. Results are identical to RunPipelined; in
// addition each task's single-threaded wall-clock work is measured cleanly
// (no scheduler interference), which is what the virtual-time cluster
// scheduler consumes.
func RunStaged(job *Job, env *Env) (*Result, error) { return run(job, env, true) }

// RunPipelined executes a job on the concurrent schedule: one goroutine per
// fragment-partition task, exchanges as bounded channels so producers and
// consumers overlap like Hyracks' pipelined connectors, and one shared
// morsel cursor per scan so partitions steal work from each other. Task
// timings include blocking time and are therefore not used for virtual-time
// scheduling (use RunStaged's).
func RunPipelined(job *Job, env *Env) (*Result, error) { return run(job, env, false) }

// run is the one executor behind both schedules. The task list is built
// once, in fragment × partition order, and every task writes its TaskTime
// and runtime.Stats into its own pre-assigned slot, merged after the last
// task returned, so no counter is ever shared between concurrent tasks.
// Only the exchange transport, the morsel deal and the task loop differ by
// schedule.
func run(job *Job, env *Env, sequential bool) (*Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	acct := env.accountant()
	fs := env.FrameSize
	if fs <= 0 {
		fs = frame.DefaultFrameSize
	}
	pool := frame.NewPool(fs, acct)
	// Sequential tasks run one after another, so a shared cursor would hand
	// every morsel to whichever task runs first; the round-robin deal keeps
	// per-task work — and the measured times — deterministic. Concurrent
	// tasks drain one shared cursor, so a skewed file set leaves no
	// stragglers.
	queues, qstats, err := buildScanQueues(job, env, !sequential)
	if err != nil {
		return nil, err
	}
	var tr transport
	if sequential {
		tr = newBufferTransport(job)
	} else {
		tr = newChanTransport(job, pool)
	}

	type task struct {
		f *Fragment
		p int
	}
	var tasks []task
	for _, f := range job.Fragments {
		for p := 0; p < f.Partitions; p++ {
			tasks = append(tasks, task{f, p})
		}
	}
	var (
		times     = make([]TaskTime, len(tasks))
		stats     = make([]*runtime.Stats, len(tasks))
		collector = &CollectSink{}
		colMu     sync.Mutex
		jp        *jobProf
	)
	if env.Profile {
		jp = &jobProf{epoch: time.Now()}
	}
	runTask := func(i int) error {
		f, p := tasks[i].f, tasks[i].p
		rt := &runtime.Ctx{
			Source:     env.Source,
			Accountant: acct,
			Stats:      &runtime.Stats{},
			FrameSize:  env.FrameSize,
			ChunkSize:  env.ChunkSize,
			Indexes:    env.Indexes,
		}
		stats[i] = rt.Stats
		ctx := &TaskCtx{RT: rt, Partition: p, FrameSize: env.FrameSize, EagerDecode: env.EagerReference, Pool: pool, morsels: queues[f.ID],
			SpillDir: env.SpillDir, SpillBudget: env.OpMemoryBudget}
		if jp != nil {
			ctx.prof = newTaskProf(job, f, p, jp.epoch)
		}
		var terminal Writer
		if f.SinkExchange >= 0 {
			terminal = tr.sink(ctx, job.exchange(f.SinkExchange))
		} else {
			terminal = recycleSink{ctx: ctx, w: &lockedSink{sink: collector, mu: &colMu}}
		}
		chain := buildTaskChain(ctx, f, terminal)
		start := time.Now()
		err := runSource(ctx, f, chain, tr)
		elapsed := time.Since(start)
		times[i] = TaskTime{
			Fragment: f.ID, Partition: p, Elapsed: elapsed,
			Morsels: ctx.MorselsScanned, Steals: ctx.MorselsStolen,
		}
		if ctx.prof != nil {
			ctx.prof.finish(ctx, start.Sub(jp.epoch).Nanoseconds(), elapsed.Nanoseconds())
			jp.add(ctx.prof)
		}
		return err
	}

	if sequential {
		for i := range tasks {
			if err = runTask(i); err != nil {
				break
			}
		}
	} else {
		var (
			wg   sync.WaitGroup
			once sync.Once
		)
		for i := range tasks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// A task torn down after another task's failure may surface
				// errStopped wrapped with scan context (e.g. a file path);
				// only the first genuine failure is reported.
				if terr := runTask(i); terr != nil && !errors.Is(terr, errStopped) {
					once.Do(func() {
						err = terr
						tr.abort()
					})
				}
			}()
		}
		wg.Wait()
	}
	if err != nil {
		tr.release(pool)
		return nil, err
	}

	res := &Result{Rows: collector.Rows, Tasks: times, PeakMemory: acct.Peak()}
	res.Stats.FilesSkipped = qstats.filesSkipped
	res.Stats.MorselsSkipped = qstats.morselsSkipped
	res.Stats.ColdIndexBuilds = qstats.coldIndexBuilds
	for _, st := range stats {
		res.Stats.Add(st)
	}
	if jp != nil {
		res.Profile = jp.buildProfile(job, time.Since(jp.epoch).Nanoseconds())
	}
	return res, nil
}

// transport moves frames across a job's exchanges: producer tasks write
// through the terminal sink, consumer tasks drain their partition with recv.
type transport interface {
	// sink returns the terminal writer of a task feeding exchange e.
	sink(ctx *TaskCtx, e *Exchange) Writer
	// recv hands the frames routed to one consumer partition of an exchange
	// to each, which takes ownership of every frame it is given.
	recv(exch, part int, each func(*frame.Frame) error) error
	// abort unblocks every task still sending or receiving after a failure.
	abort()
	// release returns frames a failed run abandoned in the transport to the
	// pool, so its outstanding-frame accounting balances to zero. It runs
	// after every task has returned.
	release(pool *frame.Pool)
}

// bufferTransport is the sequential schedule's exchange: unbounded frame
// buffers per consumer partition. Fragments run in topological order, so
// every producer task has filled a buffer before its consumer task drains
// it, and a drained buffer holds nothing.
type bufferTransport struct {
	bufs map[int][][]*frame.Frame // exchange id -> consumer partition -> frames
}

func newBufferTransport(job *Job) *bufferTransport {
	t := &bufferTransport{bufs: make(map[int][][]*frame.Frame, len(job.Exchanges))}
	for _, e := range job.Exchanges {
		t.bufs[e.ID] = make([][]*frame.Frame, e.ConsumerPartitions)
	}
	return t
}

func (t *bufferTransport) sink(ctx *TaskCtx, e *Exchange) Writer {
	dests := make([]frameDest, e.ConsumerPartitions)
	for i := range dests {
		dests[i] = &bufferDest{q: &t.bufs[e.ID][i]}
	}
	return newExchangeWriter(ctx, e, dests)
}

func (t *bufferTransport) recv(exch, part int, each func(*frame.Frame) error) error {
	// Frames leave the buffer as they are delivered — the callback owns (and
	// recycles) them, so release must not see them again.
	q := t.bufs[exch][part]
	t.bufs[exch][part] = nil
	for i, fr := range q {
		q[i] = nil
		if err := each(fr); err != nil {
			t.bufs[exch][part] = q[i+1:]
			return err
		}
	}
	return nil
}

func (t *bufferTransport) abort() {}

func (t *bufferTransport) release(pool *frame.Pool) {
	for _, parts := range t.bufs {
		for _, frames := range parts {
			for _, fr := range frames {
				pool.Put(fr)
			}
		}
	}
}

type bufferDest struct{ q *[]*frame.Frame }

func (d *bufferDest) send(fr *frame.Frame) error {
	*d.q = append(*d.q, fr)
	return nil
}

// chanTransport is the concurrent schedule's exchange: one bounded channel
// per consumer partition, closed once every producer task of the exchange
// has closed its sink, and a stop channel that unblocks senders and
// receivers after the first failure.
type chanTransport struct {
	exch     map[int]*exchChans
	stop     chan struct{}
	stopOnce sync.Once
	pool     *frame.Pool
}

type exchChans struct {
	chans     []chan *frame.Frame
	producers sync.WaitGroup
}

func newChanTransport(job *Job, pool *frame.Pool) *chanTransport {
	t := &chanTransport{exch: make(map[int]*exchChans, len(job.Exchanges)), stop: make(chan struct{}), pool: pool}
	for _, e := range job.Exchanges {
		ec := &exchChans{chans: make([]chan *frame.Frame, e.ConsumerPartitions)}
		for i := range ec.chans {
			ec.chans[i] = make(chan *frame.Frame, exchangeDepth)
		}
		t.exch[e.ID] = ec
	}
	// Register producers before any task starts.
	for _, f := range job.Fragments {
		if f.SinkExchange >= 0 {
			t.exch[f.SinkExchange].producers.Add(f.Partitions)
		}
	}
	// Close an exchange's channels once all its producers finished.
	for _, ec := range t.exch {
		go func() {
			ec.producers.Wait()
			for _, c := range ec.chans {
				close(c)
			}
		}()
	}
	return t
}

func (t *chanTransport) sink(ctx *TaskCtx, e *Exchange) Writer {
	ec := t.exch[e.ID]
	dests := make([]frameDest, e.ConsumerPartitions)
	for i := range dests {
		dests[i] = &chanDest{c: ec.chans[i], stop: t.stop, pool: t.pool}
	}
	return &producerCloser{Writer: newExchangeWriter(ctx, e, dests), done: ec.producers.Done}
}

func (t *chanTransport) recv(exch, part int, each func(*frame.Frame) error) error {
	c := t.exch[exch].chans[part]
	for {
		select {
		case fr, open := <-c:
			if !open {
				return nil
			}
			if err := each(fr); err != nil {
				return err
			}
		case <-t.stop:
			return errStopped
		}
	}
}

func (t *chanTransport) abort() { t.stopOnce.Do(func() { close(t.stop) }) }

func (t *chanTransport) release(pool *frame.Pool) {
	// Every producer has closed its sink by now, so every channel is closed.
	for _, ec := range t.exch {
		for _, c := range ec.chans {
			for fr := range c {
				pool.Put(fr)
			}
		}
	}
}

var errStopped = fmt.Errorf("hyracks: execution aborted")

type chanDest struct {
	c    chan *frame.Frame
	stop chan struct{}
	pool *frame.Pool
}

func (d *chanDest) send(fr *frame.Frame) error {
	select {
	case d.c <- fr:
		return nil
	case <-d.stop:
		// The frame's ownership arrived with this call; with no receiver left
		// it goes back to the pool instead of leaking.
		d.pool.Put(fr)
		return errStopped
	}
}

// producerCloser signals producer completion on an exchange exactly once,
// whether the task closes normally or is torn down after a failure.
type producerCloser struct {
	Writer
	done func()
	once sync.Once
}

func (p *producerCloser) Close() error {
	err := p.Writer.Close()
	p.once.Do(p.done)
	return err
}

// profExtras forwards the profiler's counter query to the wrapped exchange
// writer, which the embedded interface would otherwise hide.
func (p *producerCloser) profExtras(x *opExtras) {
	if os, ok := p.Writer.(opStatser); ok {
		os.profExtras(x)
	}
}

// lockedSink serializes pushes into the shared result collector from the
// collector fragment's partitions.
type lockedSink struct {
	sink *CollectSink
	mu   *sync.Mutex
}

func (s *lockedSink) Open() error { return nil }
func (s *lockedSink) Push(fr *frame.Frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sink.Push(fr)
}
func (s *lockedSink) Close() error { return nil }
