package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"

	"vnettracer/internal/control"
	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	"vnettracer/internal/sim"
	"vnettracer/internal/tracedb"
)

const (
	agentName = "bench-agent"
	// ringBytes holds two rounds of the largest workload per CPU ring, so
	// a ring never drops.
	ringBytes = 64 << 10
)

// countingListener counts the bytes crossing the collector's accepted
// connections: the length prefixes and bodies of both directions, which
// is what the wire-bytes metric is defined over.
type countingListener struct {
	net.Listener
	bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// store is the collector side of the pipeline: the trace database, the
// aggregate store and the durability layer over one state directory.
type store struct {
	db   *tracedb.DB
	aggs *tracedb.AggStore
	dur  *tracedb.Durability
	rec  tracedb.RecoveryStats
}

// openStore builds the store over dir, recovering whatever a previous
// incarnation left there (nothing, on a cold start). segmentBytes 0 is
// the store's default segment size.
func openStore(segmentBytes int, dir string) (*store, error) {
	db := tracedb.NewWith(tracedb.Config{SegmentBytes: segmentBytes, DataDir: filepath.Join(dir, "data")})
	aggs := tracedb.NewAggStore()
	dur, rec, err := tracedb.Recover(db, aggs, tracedb.DurabilityConfig{
		Dir:   filepath.Join(dir, "wal"),
		Fsync: tracedb.FsyncInterval,
	})
	if err != nil {
		return nil, fmt.Errorf("recover %s: %w", dir, err)
	}
	return &store{db: db, aggs: aggs, dur: dur, rec: rec}, nil
}

// pipeline is the whole record path in one process: simulated kernel and
// machine, agent, TCP sink, loopback server, collector, durable store.
type pipeline struct {
	dir string
	*store
	node  *kernel.Node
	eng   *sim.Engine
	col   *control.Collector
	ln    *countingListener
	srv   *control.Server
	sink  *control.TCPSink
	agent *control.Agent
}

// setup goes from nothing to ready for the first packet: state
// directory, store, recovery of the empty directory, server, agent,
// script compile+verify+lower+attach, and one heartbeat to force the
// dial. tr is nil on the timed run.
func setup(w *workload, dir string, tr *tracer) (*pipeline, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := openStore(w.segmentBytes, dir)
	if err != nil {
		return nil, err
	}
	p := &pipeline{dir: dir, store: st}
	p.col = control.NewCollectorWith(st.db, st.aggs)
	p.col.SetDurability(st.dur)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.dur.Close()
		return nil, err
	}
	p.ln = &countingListener{Listener: ln}
	var colSink control.RecordSink = p.col
	if tr != nil {
		colSink = &tracedCollector{col: p.col, tr: tr}
	}
	p.srv = control.Serve(p.ln, nil, colSink)
	p.sink = control.NewTCPSink(p.srv.Addr().String())

	p.eng = sim.NewEngine(1)
	p.node = kernel.NewNode(p.eng, kernel.NodeConfig{Name: "bench-node", NumCPU: simCPUs})
	machine, err := core.NewMachine(p.node, ringBytes)
	if err != nil {
		p.close()
		return nil, err
	}
	var agentSink control.RecordSink = p.sink
	if tr != nil {
		agentSink = &tracedSink{sink: p.sink, tr: tr}
	}
	p.agent = control.NewAgent(agentName, machine, agentSink)
	if err := p.agent.Apply(control.ControlPackage{Install: w.specs(), ShipAggregates: w.aggregates}); err != nil {
		p.close()
		return nil, err
	}
	if err := p.agent.Flush(); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// close stops the pipeline the way a crash would leave it: the WAL is
// synced and closed, but no final checkpoint is cut, so whatever followed
// the last checkpoint is only in the WAL tail.
func (p *pipeline) close() error {
	p.sink.Close()
	p.srv.Close()
	return p.dur.Close()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
