// Command vntbench regenerates every table and figure of the paper's
// evaluation section and prints paper-style rows, with the paper's reported
// numbers alongside for comparison. Absolute values come from a simulator,
// not the authors' testbed; the shapes (who wins, rough factors, where
// saturations fall) are what reproduce.
//
//	vntbench            # run everything
//	vntbench -run fig10 # run experiments whose name contains "fig10"
//	vntbench -quick     # smaller workloads
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"vnettracer/internal/testbed"
)

type experiment struct {
	name string
	run  func(w io.Writer, quick bool) error
}

// experiments lists the evaluation's figures in report order.
var experiments = []experiment{
	{"fig7a-overhead-latency", fig7a},
	{"fig7b-overhead-throughput", fig7b},
	{"fig8b-ovs-congestion", fig8b},
	{"fig9a-ovs-decomposition", fig9a},
	{"fig9b-ovs-ratelimit", fig9b},
	{"fig10a-xen-sockperf", fig10a},
	{"fig10b-xen-memcached", fig10b},
	{"fig11-xen-decomposition", fig11},
	{"fig12b-overlay-throughput", fig12b},
	{"fig13a-softirq", fig13a},
	{"fig13b-datapath", fig13b},
	{"fig4-clock-skew", fig4},
}

func main() {
	filter := flag.String("run", "", "only run experiments whose name contains this substring")
	quick := flag.Bool("quick", false, "smaller workloads")
	flag.Parse()
	selected := func(name string) bool { return strings.Contains(name, *filter) }
	if failed := run(os.Stdout, selected, *quick); failed > 0 {
		os.Exit(1)
	}
}

// run prints the selected experiments' rows to w, each followed by its
// elapsed wall time, and returns how many failed.
func run(w io.Writer, selected func(name string) bool, quick bool) int {
	failed := 0
	for _, e := range experiments {
		if !selected(e.name) {
			continue
		}
		fmt.Fprintf(w, "==== %s ====\n", e.name)
		start := time.Now()
		if err := e.run(w, quick); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			failed++
		}
		fmt.Fprintf(w, "(%.1fs)\n\n", time.Since(start).Seconds())
	}
	return failed
}

func pings(quick bool, full int) int {
	if quick {
		return full / 4
	}
	return full
}

func fig7a(w io.Writer, quick bool) error {
	res, err := testbed.RunOverheadLatency(pings(quick, 5000))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sockperf UDP between two KVM VMs, 4 trace scripts at ovs-br1 + ens3 on both hosts\n")
	fmt.Fprintf(w, "  %-12s mean=%8.2fus  p99.9=%8.2fus\n", "baseline", res.Baseline.MeanUs, res.Baseline.P999Us)
	fmt.Fprintf(w, "  %-12s mean=%8.2fus  p99.9=%8.2fus\n", "vNetTracer", res.Traced.MeanUs, res.Traced.P999Us)
	fmt.Fprintf(w, "  overhead: mean %+.2f%% (paper: <1%%), p99.9 %+.2f%%\n", res.MeanOverheadPct, res.P999OverheadPct)
	fmt.Fprintf(w, "  packet loss: baseline %.4f, traced %.4f (paper: no additional loss)\n", res.BaselineLoss, res.TracedLoss)
	fmt.Fprintf(w, "  trace records collected: %d\n", res.TraceRecords)
	return nil
}

func fig7b(w io.Writer, quick bool) error {
	segs := pings(quick, 20000)
	for _, link := range []int64{testbed.Gbps, 10 * testbed.Gbps} {
		res, err := testbed.RunOverheadThroughput(link, segs)
		if err != nil {
			return err
		}
		paper := "paper: ~10% SystemTap loss"
		if link > testbed.Gbps {
			paper = "paper: 26.5% SystemTap loss"
		}
		fmt.Fprintf(w, "netperf TCP into a 1-vCPU Xen VM, %dG link (%s)\n", link/testbed.Gbps, paper)
		fmt.Fprintf(w, "  %-12s %8.3f Gbps\n", "baseline", res.BaselineBps/1e9)
		fmt.Fprintf(w, "  %-12s %8.3f Gbps  (-%.1f%%)\n", "vNetTracer", res.VNetBps/1e9, res.VNetLossPct)
		fmt.Fprintf(w, "  %-12s %8.3f Gbps  (-%.1f%%)\n", "SystemTap", res.SystemTapBps/1e9, res.SystemTapLossPct)
	}
	return nil
}

func ovsRow(w io.Writer, res testbed.OVSCaseResult) {
	fmt.Fprintf(w, "  %-10s mean=%8.1fus p99=%8.1fus p99.9=%8.1fus loss=%.3f\n",
		res.Label, res.Sockperf.MeanUs, res.Sockperf.P99Us, res.Sockperf.P999Us, res.LossRate)
}

func fig8b(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "sockperf latency sharing one OVS with iperf flows (paper: tails rise sharply)")
	for _, cfg := range []testbed.OVSCaseConfig{
		{},
		{IperfVM0: 1},
		{IperfVM0: 1, ExtraVMs: 1},
	} {
		cfg.Pings = pings(quick, 5000)
		res, err := testbed.RunOVSCase(cfg)
		if err != nil {
			return err
		}
		ovsRow(w, res)
	}
	return nil
}

func fig9a(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "latency decomposition: sender stack | OVS | receiver stack (mean us)")
	fmt.Fprintln(w, "(paper: OVS dominates; II->II+ flat, III->III+ grows)")
	for _, cfg := range []testbed.OVSCaseConfig{
		{},
		{IperfVM0: 1},
		{IperfVM0: 3},
		{IperfVM0: 1, ExtraVMs: 1},
		{IperfVM0: 1, ExtraVMs: 3},
	} {
		cfg.Pings = pings(quick, 5000)
		res, err := testbed.RunOVSCase(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-10s", res.Label)
		for _, s := range res.Segments {
			fmt.Fprintf(w, "  %s=%.1f", s.Name, s.MeanUs)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func fig9b(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "ingress policing 1e5 kbps / 1e4 kb burst (paper: latency restored)")
	for _, police := range []bool{false, true} {
		cfg := testbed.OVSCaseConfig{IperfVM0: 1, ExtraVMs: 1, Police: police, Pings: pings(quick, 5000)}
		res, err := testbed.RunOVSCase(cfg)
		if err != nil {
			return err
		}
		label := "congested"
		if police {
			label = "policed"
		}
		fmt.Fprintf(w, "  %-10s mean=%8.1fus p99.9=%8.1fus (policer drops: %d)\n",
			label, res.Sockperf.MeanUs, res.Sockperf.P999Us, res.PolicerDrops)
	}
	return nil
}

func fig10a(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "sockperf under Xen credit2 (paper: p99.9 rises 22x; ratelimit=0 restores)")
	var base, cons testbed.XenResult
	for _, cfg := range []testbed.XenConfig{
		{Workload: testbed.XenSockperf},
		{Workload: testbed.XenSockperf, Consolidated: true, RatelimitUs: 1000},
		{Workload: testbed.XenSockperf, Consolidated: true, RatelimitUs: 0},
	} {
		cfg.Requests = pings(quick, 3000)
		res, err := testbed.RunXenCase(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-30s mean=%8.1fus p99.9=%8.1fus\n", res.Label, res.AppLatency.MeanUs, res.AppLatency.P999Us)
		if !cfg.Consolidated {
			base = res
		} else if cfg.RatelimitUs == 1000 {
			cons = res
		}
	}
	fmt.Fprintf(w, "  tail inflation: %.1fx (paper: 22x)\n", cons.AppLatency.P999Us/base.AppLatency.P999Us)
	return nil
}

func fig10b(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "memcached (data caching) 5000 rps, 4:1 GET/SET (paper: mean 4.7x, tail 7.5x)")
	var base, cons testbed.XenResult
	for _, cfg := range []testbed.XenConfig{
		{Workload: testbed.XenMemcached},
		{Workload: testbed.XenMemcached, Consolidated: true, RatelimitUs: 1000},
		{Workload: testbed.XenMemcached, Consolidated: true, RatelimitUs: 0},
	} {
		cfg.Requests = pings(quick, 5000)
		res, err := testbed.RunXenCase(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-30s mean=%8.1fus p99.9=%8.1fus\n", res.Label, res.AppLatency.MeanUs, res.AppLatency.P999Us)
		if !cfg.Consolidated {
			base = res
		} else if cfg.RatelimitUs == 1000 {
			cons = res
		}
	}
	fmt.Fprintf(w, "  mean inflation %.1fx (paper 4.7x), tail inflation %.1fx (paper 7.5x)\n",
		cons.AppLatency.MeanUs/base.AppLatency.MeanUs,
		cons.AppLatency.P999Us/base.AppLatency.P999Us)
	return nil
}

func fig11(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "traced one-way decomposition (paper: vif1.0->eth1 > 90% when consolidated)")
	for _, cfg := range []testbed.XenConfig{
		{Workload: testbed.XenSockperf},
		{Workload: testbed.XenSockperf, Consolidated: true, RatelimitUs: 1000},
	} {
		cfg.Requests = pings(quick, 2000)
		res, err := testbed.RunXenCase(cfg)
		if err != nil {
			return err
		}
		var total float64
		for _, m := range res.SegmentMeans {
			total += m
		}
		fmt.Fprintf(w, "  %s:\n", res.Label)
		for i, name := range res.SegmentNames {
			fmt.Fprintf(w, "    %-22s %8.1fus (%5.1f%%)\n", name, res.SegmentMeans[i], res.SegmentMeans[i]/total*100)
		}
		fmt.Fprintf(w, "    jitter range (%.1f, %.1f)us\n", res.JitterLoUs, res.JitterHiUs)
	}
	return nil
}

func fig12b(w io.Writer, quick bool) error {
	res, err := testbed.RunContainerThroughput(pings(quick, 20000))
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "VM-to-VM vs container-overlay throughput")
	fmt.Fprintf(w, "  netperf TCP: VM %6.2fG  container %6.2fG  ratio %.1f%% (paper 16.8%%)\n",
		res.VMTCPBps/1e9, res.ContTCPBps/1e9, res.TCPRatioPct)
	fmt.Fprintf(w, "  iperf UDP:   VM %6.2fG  container %6.2fG  ratio %.1f%% (paper 22.9%%)\n",
		res.VMUDPBps/1e9, res.ContUDPBps/1e9, res.UDPRatioPct)
	return nil
}

func fig13a(w io.Writer, _ bool) error {
	res, err := testbed.RunSoftirqDistribution()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "net_rx_action via eBPF kprobe + per-CPU maps")
	fmt.Fprintf(w, "  rate: VM %.0f/s, container %.0f/s -> %.2fx (paper 4.54x)\n",
		res.VMRatePerSec, res.ContRatePerSec, res.RateRatio)
	fmt.Fprintf(w, "  dominant CPU share: VM %.1f%% (paper 99.7%%), container %.1f%% (paper 62.9%%)\n",
		res.VMTopShare*100, res.ContTopShare*100)
	return nil
}

func fig13b(w io.Writer, _ bool) error {
	res, err := testbed.RunPathTrace()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "per-packet data path from device record scripts")
	fmt.Fprintf(w, "  VM-to-VM   (%d hops): %s\n", len(res.VMPath), strings.Join(res.VMPath, " -> "))
	fmt.Fprintf(w, "  container  (%d hops): %s\n", len(res.ContainerPath), strings.Join(res.ContainerPath, " -> "))
	return nil
}

func fig4(w io.Writer, quick bool) error {
	// The Xen testbed embeds the Cristian exchange; reuse it.
	res, err := testbed.RunXenCase(testbed.XenConfig{Workload: testbed.XenSockperf, Requests: pings(quick, 1000)})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Cristian's algorithm over 100 traced probe exchanges")
	fmt.Fprintf(w, "  estimated skew %.6fms, true %.6fms, error %.3fus\n",
		float64(res.SkewEstimateNs)/1e6, float64(res.SkewTruthNs)/1e6,
		float64(res.SkewEstimateNs-res.SkewTruthNs)/1e3)
	return nil
}
