package smp

import (
	"fmt"

	"repro/internal/addr"
)

// Topology describes a clustered NUMA interconnect: a 2D mesh of
// MeshWidth x MeshHeight clusters, each holding ClusterCPUs processors
// and one memory bank (the TSAR/GIET-style clusterized organization).
// CPUs are numbered cluster-major: cluster c owns CPUs
// [c*ClusterCPUs, (c+1)*ClusterCPUs). Pages are homed round-robin
// across the banks by page number.
//
// The zero value means "single cluster": every CPU zero hops from every
// other and from the one memory bank, which makes all hop-priced costs
// vanish — the flat-interconnect configurations the existing
// experiments were calibrated on are byte-identical under it.
type Topology struct {
	// MeshWidth and MeshHeight are the cluster grid dimensions; zero
	// means 1 (a single row/column).
	MeshWidth, MeshHeight int
	// ClusterCPUs is the number of CPUs per cluster; zero means all
	// CPUs share one cluster.
	ClusterCPUs int
}

// SingleCluster returns the default flat topology for ncpu CPUs: one
// cluster, zero hops everywhere.
func SingleCluster(ncpu int) Topology {
	if ncpu < 1 {
		ncpu = 1
	}
	return Topology{MeshWidth: 1, MeshHeight: 1, ClusterCPUs: ncpu}
}

// Normalize fills zero fields against ncpu CPUs: absent grid dimensions
// become 1 and an absent cluster size swallows every CPU, so the zero
// Topology normalizes to SingleCluster(ncpu).
func (t Topology) Normalize(ncpu int) Topology {
	if t.MeshWidth < 1 {
		t.MeshWidth = 1
	}
	if t.MeshHeight < 1 {
		t.MeshHeight = 1
	}
	if t.ClusterCPUs < 1 {
		if ncpu < 1 {
			ncpu = 1
		}
		t.ClusterCPUs = (ncpu + t.Clusters() - 1) / t.Clusters()
	}
	return t
}

// Validate checks that the normalized topology can seat ncpu CPUs.
func (t Topology) Validate(ncpu int) error {
	n := t.Normalize(ncpu)
	if seats := n.Clusters() * n.ClusterCPUs; seats < ncpu {
		return fmt.Errorf("smp: topology %dx%d mesh with %d CPUs/cluster seats %d CPUs, need %d",
			n.MeshWidth, n.MeshHeight, n.ClusterCPUs, seats, ncpu)
	}
	return nil
}

// Clusters returns the number of clusters (memory banks) in the mesh.
func (t Topology) Clusters() int {
	w, h := t.MeshWidth, t.MeshHeight
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	return w * h
}

// ClusterOf returns the cluster index of CPU i.
func (t Topology) ClusterOf(cpu int) int {
	if t.ClusterCPUs < 1 {
		return 0
	}
	c := cpu / t.ClusterCPUs
	if max := t.Clusters() - 1; c > max {
		c = max
	}
	return c
}

// clusterXY returns cluster c's mesh coordinates.
func (t Topology) clusterXY(c int) (x, y int) {
	w := t.MeshWidth
	if w < 1 {
		w = 1
	}
	return c % w, c / w
}

// ClusterHops returns the Manhattan distance between two clusters.
// Device agents sit on the mesh at a cluster rather than at a CPU seat,
// so their traffic is priced cluster-to-cluster directly.
func (t Topology) ClusterHops(a, b int) int {
	ax, ay := t.clusterXY(a)
	bx, by := t.clusterXY(b)
	dx := ax - bx
	if dx < 0 {
		dx = -dx
	}
	dy := ay - by
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// HomeCluster returns the cluster whose memory bank homes page vpn
// (round-robin by page number across the banks).
func (t Topology) HomeCluster(vpn addr.VPN) int {
	return int(uint64(vpn) % uint64(t.Clusters()))
}

// MemHopsFrom returns the Manhattan distance from cluster c to page
// vpn's home memory bank: the DMA path cost for a device agent seated
// at cluster c.
func (t Topology) MemHopsFrom(c int, vpn addr.VPN) int {
	return t.ClusterHops(c, t.HomeCluster(vpn))
}

// Diameter returns the largest possible hop count in the mesh, for
// worst-case cost bounds.
func (t Topology) Diameter() int {
	w, h := t.MeshWidth, t.MeshHeight
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	return (w - 1) + (h - 1)
}
