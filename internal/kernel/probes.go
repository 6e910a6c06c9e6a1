package kernel

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"vnettracer/internal/vnet"
)

// Well-known probe sites. These are the kernel functions the paper's trace
// scripts attach to; device-level tracepoints attach through
// vnet.NetDev.AttachHook instead.
const (
	SiteUDPSendSkb      = "udp_send_skb"
	SiteTCPOptionsWrite = "tcp_options_write"
	SiteUDPRecvmsg      = "udp_recvmsg"
	SiteTCPRecvmsg      = "tcp_recvmsg"
	SiteNetRxAction     = "net_rx_action"
	SiteGetRPSCPU       = "get_rps_cpu"
	SiteSkbPut          = "__skb_put"
	SitePskbTrimRcsum   = "pskb_trim_rcsum"
)

// RetSite derives the kretprobe site name for a kernel function: a
// kretprobe at tcp_recvmsg attaches to RetSite(SiteTCPRecvmsg). The kernel
// fires it when the function returns (e.g. after the receive path's cost
// has elapsed).
func RetSite(site string) string { return site + retSuffix }

const retSuffix = "%return"

// The return sites the kernel's send and receive paths fire, spelled out
// as constants so a packet builds no string.
const (
	retUDPSendSkb      = SiteUDPSendSkb + retSuffix
	retTCPOptionsWrite = SiteTCPOptionsWrite + retSuffix
	retUDPRecvmsg      = SiteUDPRecvmsg + retSuffix
	retTCPRecvmsg      = SiteTCPRecvmsg + retSuffix
)

// UprobeSite derives a user-level probe site for an application symbol
// (the paper's uprobe/uretprobe surface). Workloads fire these around
// their request handling.
func UprobeSite(app, symbol string) string { return "uprobe:" + app + ":" + symbol }

// ProbeCtx is the information a probe site exposes to attached handlers;
// the tracer core serializes it into the eBPF context structure.
type ProbeCtx struct {
	// Site is the kernel function or tracepoint name.
	Site string
	// Pkt is the packet in flight; nil for packet-less sites.
	Pkt *vnet.Packet
	// CPU is the executing processor.
	CPU int
	// DevIfindex / DevName identify the device, when relevant.
	DevIfindex int
	DevName    string
	// Dir is the crossing direction for device hooks.
	Dir vnet.Direction
	// TimeNs is the node's CLOCK_MONOTONIC at fire time.
	TimeNs int64
}

// ProbeHandler observes one probe firing and returns CPU nanoseconds
// consumed; the kernel charges that to the packet's processing, making
// tracing overhead physical.
type ProbeHandler func(ctx *ProbeCtx) (costNs int64)

// ProbeRegistry holds handlers attached to kernel probe sites. It is safe
// for concurrent use: the control-plane agent attaches and detaches while
// the simulated kernel fires probes.
//
// Firing is the traced path, attaching is rare, so the registry is
// copy-on-write: Fire reads an immutable site table through one atomic
// load and never locks, allocates or sorts; Attach and detach rebuild the
// table under mu and publish the copy. A Fire already past its load keeps
// dispatching from the table it saw, so a handler may still be started by
// firings that began before its detach returned — never by one that began
// after.
type ProbeRegistry struct {
	mu     sync.Mutex // serializes the writers: Attach and detach
	nextID int
	// table maps each site to its handlers in ascending id, i.e. attach
	// order; a site whose last handler detaches leaves it.
	table atomic.Pointer[map[string][]attachedHandler]
}

type attachedHandler struct {
	id int
	h  ProbeHandler
}

// NewProbeRegistry returns an empty registry.
func NewProbeRegistry() *ProbeRegistry {
	r := &ProbeRegistry{}
	r.table.Store(&map[string][]attachedHandler{})
	return r
}

// Attach registers a handler at a site and returns a detach function.
// Handlers at one site run in attach order.
func (r *ProbeRegistry) Attach(site string, h ProbeHandler) (detach func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.nextID
	r.nextID++
	r.rebuild(site, func(old []attachedHandler) []attachedHandler {
		// ids only grow, so appending keeps attach order.
		return append(slices.Clip(old), attachedHandler{id, h})
	})
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.rebuild(site, func(old []attachedHandler) []attachedHandler {
			return slices.DeleteFunc(slices.Clone(old), func(a attachedHandler) bool { return a.id == id })
		})
	}
}

// rebuild publishes a copy of the site table in which site's handlers are
// edit(current handlers). edit must not modify its argument: firings in
// flight still read it. Callers hold r.mu.
func (r *ProbeRegistry) rebuild(site string, edit func([]attachedHandler) []attachedHandler) {
	next := maps.Clone(*r.table.Load())
	if hs := edit(next[site]); len(hs) > 0 {
		next[site] = hs
	} else {
		delete(next, site)
	}
	r.table.Store(&next)
}

// handlers returns a site's handlers in the current table.
func (r *ProbeRegistry) handlers(site string) []attachedHandler { return (*r.table.Load())[site] }

// Fire invokes every handler attached at ctx.Site, in attach order, and
// returns the summed CPU cost. Sites with no handlers cost one table
// lookup and nothing else, preserving the paper's "no tracing, no
// overhead" property.
func (r *ProbeRegistry) Fire(ctx *ProbeCtx) int64 {
	var cost int64
	for _, a := range r.handlers(ctx.Site) {
		cost += a.h(ctx)
	}
	return cost
}

// Attached reports the number of handlers at a site.
func (r *ProbeRegistry) Attached(site string) int { return len(r.handlers(site)) }

func (c *ProbeCtx) String() string {
	return fmt.Sprintf("probe %s cpu=%d dev=%s t=%d", c.Site, c.CPU, c.DevName, c.TimeNs)
}
