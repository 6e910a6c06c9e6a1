package vnettracer_test

// Runnable documentation examples (go doc / go test) for the public API.

import (
	"fmt"

	"vnettracer"
)

// ExampleSession traces a UDP flow across a loopback device and computes
// latency from the collected records.
func ExampleSession() {
	eng := vnettracer.NewEngine(1)
	node := vnettracer.NewNode(eng, vnettracer.NodeConfig{Name: "demo", NumCPU: 2, TraceIDs: true})
	machine, err := vnettracer.NewMachine(node, 64*1024)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	dev := vnettracer.NewNetDev(eng, vnettracer.NetDevConfig{
		Name: "lo0", Ifindex: 1,
		ProcNs: func(*vnettracer.Packet) int64 { return 1000 },
		Out:    node.DeliverLocal,
	})
	if err := machine.RegisterDevice(dev); err != nil {
		fmt.Println("error:", err)
		return
	}
	node.Egress = dev.Receive

	session := vnettracer.NewSession()
	if _, err := session.AddMachine(machine); err != nil {
		fmt.Println("error:", err)
		return
	}
	filter := vnettracer.Filter{Proto: vnettracer.ProtoUDP, DstPort: 9000}
	session.InstallRecord("demo", "dev",
		vnettracer.AttachPoint{Kind: vnettracer.AttachDevice, Device: "lo0", Dir: vnettracer.Ingress}, filter)
	session.InstallRecord("demo", "sock",
		vnettracer.AttachPoint{Kind: vnettracer.AttachKProbe, Site: vnettracer.SiteUDPRecvmsg}, filter)

	srv := vnettracer.SockAddr{IP: vnettracer.MustParseIP("10.0.0.1"), Port: 9000}
	node.Open(vnettracer.ProtoUDP, srv, func(*vnettracer.Packet) {})
	cli, _ := node.Open(vnettracer.ProtoUDP, vnettracer.SockAddr{IP: vnettracer.MustParseIP("10.0.0.1"), Port: 40000}, nil)
	for i := 0; i < 10; i++ {
		cli.Send(srv, 64)
	}
	eng.RunUntilIdle()
	session.Flush()

	devT, _ := session.Table("dev")
	sockT, _ := session.Table("sock")
	lats := vnettracer.Latencies(devT, sockT)
	fmt.Printf("traced %d packets\n", len(lats))
	lost, _ := vnettracer.Loss(devT, sockT)
	fmt.Printf("lost %d\n", lost)
	// Output:
	// traced 10 packets
	// lost 0
}

// ExampleCompileSpec shows a trace spec compiling to verified eBPF
// bytecode.
func ExampleCompileSpec() {
	compiled, err := vnettracer.CompileSpec(vnettracer.TraceSpec{
		Name: "count-dns",
		Filter: vnettracer.Filter{
			Proto:   vnettracer.ProtoUDP,
			DstPort: 53,
		},
		Actions: []vnettracer.Action{vnettracer.ActionCount},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("verified, within the 4k limit: %v\n", compiled.Prog.Len() > 0 && compiled.Prog.Len() < 4096)
	// Output:
	// verified, within the 4k limit: true
}
