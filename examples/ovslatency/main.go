// Command ovslatency reproduces the paper's case study I (Figures 8-9):
// long tail latency inside Open vSwitch when a latency-sensitive sockperf
// flow shares the switch with throughput-intensive iperf flows, diagnosed
// by decomposing the end-to-end latency with vNetTracer trace scripts and
// mitigated with ingress rate limiting.
package main

import (
	"fmt"
	"log"

	"vnettracer/internal/testbed"
)

func main() {
	cases := []struct {
		cfg testbed.OVSCaseConfig
	}{
		{testbed.OVSCaseConfig{}},                                       // Case I: uncongested
		{testbed.OVSCaseConfig{IperfVM0: 1}},                            // Case II: shared ingress port
		{testbed.OVSCaseConfig{IperfVM0: 3}},                            // Case II+
		{testbed.OVSCaseConfig{IperfVM0: 1, ExtraVMs: 1}},               // Case III: second ingress port
		{testbed.OVSCaseConfig{IperfVM0: 1, ExtraVMs: 3}},               // Case III+
		{testbed.OVSCaseConfig{IperfVM0: 1, ExtraVMs: 1, Police: true}}, // mitigation
	}

	fmt.Println("case study I: sockperf latency through a shared Open vSwitch")
	fmt.Println()
	fmt.Printf("%-10s %-9s %10s %10s %10s   %s\n",
		"case", "policed", "mean(us)", "p99(us)", "p99.9(us)", "decomposition (mean us)")
	for _, c := range cases {
		res, err := testbed.RunOVSCase(c.cfg)
		if err != nil {
			log.Fatal(err)
		}
		policed := "no"
		if c.cfg.Police {
			policed = "yes"
		}
		fmt.Printf("%-10s %-9s %10.1f %10.1f %10.1f   ",
			res.Label, policed, res.Sockperf.MeanUs, res.Sockperf.P99Us, res.Sockperf.P999Us)
		for i, s := range res.Segments {
			if i > 0 {
				fmt.Print(" | ")
			}
			fmt.Printf("%s %.1f", s.Name, s.MeanUs)
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Println("reading: the OVS segment dominates under congestion; the gap II->II+ is flat")
	fmt.Println("(saturated ingress queue) while III->III+ grows (cross-port switching);")
	fmt.Println("ingress policing restores both average and tail latency.")
}
