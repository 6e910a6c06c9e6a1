package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"vnettracer/internal/control"
	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	"vnettracer/internal/sim"
	"vnettracer/internal/vnet"
)

// runAgent hosts a demo machine: a node with a loopback device carrying a
// steady UDP flow, its simulated clock pumped in real time. The agent
// accepts control packages over TCP and flushes records to the collector.
func runAgent(args []string) error {
	fs := flag.NewFlagSet("agent", flag.ExitOnError)
	name := fs.String("name", "agent0", "agent name")
	listen := fs.String("listen", ":7702", "address to accept control packages on")
	collector := fs.String("collector", "", "collector address (host:port), or a comma-separated list of the tier's collectors; with a list the agent homes onto one by consistent hashing on its name, matching the cluster's placement")
	rate := fs.Int("pps", 1000, "demo workload packets per second")
	epoch := fs.Uint64("epoch", 0, "registration epoch lease; stamp a higher value after a restart so the collector fences the old incarnation's stragglers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *collector == "" {
		return fmt.Errorf("agent: -collector is required")
	}

	eng := sim.NewEngine(time.Now().UnixNano() % 1_000_000)
	node := kernel.NewNode(eng, kernel.NodeConfig{Name: *name, NumCPU: 4, TraceIDs: true, Seed: 7})
	machine, err := core.NewMachine(node, core.MaxBufferBytes)
	if err != nil {
		return err
	}
	lo := vnet.NewNetDev(eng, vnet.NetDevConfig{
		Name: "lo0", Ifindex: 1,
		ProcNs: func(*vnet.Packet) int64 { return 1000 },
		Out:    node.DeliverLocal,
	})
	if err := machine.RegisterDevice(lo); err != nil {
		return err
	}
	node.Egress = lo.Receive

	// Demo workload: a UDP flow to port 9000 on the loopback.
	srvAddr := kernel.SockAddr{IP: vnet.MustParseIPv4("10.0.0.1"), Port: 9000}
	if _, err := node.Open(vnet.ProtoUDP, srvAddr, func(*vnet.Packet) {}); err != nil {
		return err
	}
	cli, err := node.Open(vnet.ProtoUDP, kernel.SockAddr{IP: vnet.MustParseIPv4("10.0.0.1"), Port: 40000}, nil)
	if err != nil {
		return err
	}
	interval := int64(sim.Second) / int64(*rate)
	var pump func()
	pump = func() {
		if _, err := cli.Send(srvAddr, 100); err == nil {
			eng.Schedule(interval, pump)
		}
	}
	eng.Schedule(0, pump)

	// A multi-collector tier: home onto one collector by the same
	// consistent hash the dispatcher uses, so every component agrees on
	// placement without coordination.
	home := *collector
	if addrs := strings.Split(*collector, ","); len(addrs) > 1 {
		ring := control.NewHashRing()
		for _, a := range addrs {
			ring.Add(strings.TrimSpace(a))
		}
		var ok bool
		if home, ok = ring.Owner(*name); !ok {
			return fmt.Errorf("agent: empty collector list")
		}
	}
	sink := control.NewTCPSink(home)
	defer sink.Close()
	agent := control.NewAgent(*name, machine, sink)
	if *epoch > 0 {
		agent.SetEpoch(*epoch)
	}

	// The engine is single-threaded: serialize control-plane Apply calls
	// with the real-time pump.
	var mu sync.Mutex
	locked := lockedAgent{agent: agent, mu: &mu}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv := control.Serve(ln, &locked, nil)
	defer srv.Close()
	fmt.Printf("agent %s on %s, demo flow %d pps to :9000, collector %s\n",
		*name, srv.Addr(), *rate, home)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			mu.Lock()
			err := agent.Flush()
			st := agent.SpoolStats()
			rs := agent.RingStats()
			mu.Unlock()
			if st.Batches > 0 || st.EvictedRecords > 0 {
				fmt.Fprintf(os.Stderr, "spool at shutdown: %d batches / %d records undelivered, %d records evicted\n",
					st.Batches, st.Records, st.EvictedRecords)
			}
			if rs.Drops > 0 {
				fmt.Fprintf(os.Stderr, "ring drops at shutdown: %d total across %d per-CPU rings %v\n",
					rs.Drops, rs.Rings, rs.PerRingDrops)
			}
			if as := agent.AggShipStats(); as.Enabled {
				fmt.Fprintf(os.Stderr, "aggregate shipping: %d frames shipped, %d spooled, %d ship errors, %d rejected, %d evicted, %d flow increments refused (flow map full)\n",
					as.FramesShipped, as.FramesSpooled, as.ShipErrs, as.Rejected, as.Evicted, as.FlowsRefused)
			}
			if ds := agent.DegradeStats(); ds.Degradations > 0 {
				fmt.Fprintf(os.Stderr, "overload degradation: entered %d times (recovered %d), %d stretched flushes, %d ring writes sampled away\n",
					ds.Degradations, ds.Recoveries, ds.StretchedIntervals, ds.SampleDrops)
			}
			fmt.Println("\nagent shutting down")
			return err
		case <-tick.C:
			mu.Lock()
			eng.Run(eng.Now() + 100*int64(sim.Millisecond))
			flushErr := agent.Flush()
			mu.Unlock()
			if flushErr != nil {
				st := agent.SpoolStats()
				fmt.Fprintf(os.Stderr, "flush: %v (collector down? %d records spooled in %d B, %d evicted)\n",
					flushErr, st.Records, st.Bytes, st.EvictedRecords)
			}
		}
	}
}

// lockedAgent serializes Apply with the simulation pump.
type lockedAgent struct {
	agent *control.Agent
	mu    *sync.Mutex
}

func (l *lockedAgent) Apply(pkg control.ControlPackage) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.agent.Apply(pkg)
}
