package smp

import (
	"testing"

	"repro/internal/addr"
)

func TestTopologySingleClusterIsFree(t *testing.T) {
	for _, topo := range []Topology{{}, SingleCluster(8)} {
		topo = topo.Normalize(8)
		if topo.Clusters() != 1 {
			t.Fatalf("%+v: Clusters = %d, want 1", topo, topo.Clusters())
		}
		if topo.Diameter() != 0 {
			t.Fatalf("%+v: Diameter = %d, want 0", topo, topo.Diameter())
		}
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				if h := topo.ClusterHops(topo.ClusterOf(a), topo.ClusterOf(b)); h != 0 {
					t.Fatalf("Hops(%d,%d) = %d on a flat topology", a, b, h)
				}
			}
			if h := topo.MemHopsFrom(topo.ClusterOf(a), addr.VPN(17)); h != 0 {
				t.Fatalf("MemHops(%d) = %d on a flat topology", a, h)
			}
		}
	}
}

func TestTopologyMeshHops(t *testing.T) {
	// 4x2 mesh, 4 CPUs per cluster: 32 seats, cluster-major numbering.
	topo := Topology{MeshWidth: 4, MeshHeight: 2, ClusterCPUs: 4}.Normalize(32)
	if topo.Clusters() != 8 {
		t.Fatalf("Clusters = %d, want 8", topo.Clusters())
	}
	if got := topo.ClusterOf(0); got != 0 {
		t.Fatalf("ClusterOf(0) = %d", got)
	}
	if got := topo.ClusterOf(31); got != 7 {
		t.Fatalf("ClusterOf(31) = %d", got)
	}
	// Same cluster: free. Adjacent clusters: one hop. Opposite
	// corners: Manhattan distance (3 across + 1 down).
	if h := topo.ClusterHops(topo.ClusterOf(0), topo.ClusterOf(3)); h != 0 {
		t.Fatalf("intra-cluster hops = %d, want 0", h)
	}
	if h := topo.ClusterHops(topo.ClusterOf(0), topo.ClusterOf(4)); h != 1 {
		t.Fatalf("adjacent-cluster hops = %d, want 1", h)
	}
	if h := topo.ClusterHops(topo.ClusterOf(0), topo.ClusterOf(31)); h != 4 {
		t.Fatalf("corner-to-corner hops = %d, want 4", h)
	}
	if h, g := topo.ClusterHops(topo.ClusterOf(5), topo.ClusterOf(26)), topo.ClusterHops(topo.ClusterOf(26), topo.ClusterOf(5)); h != g {
		t.Fatalf("hops not symmetric: %d vs %d", h, g)
	}
	if d := topo.Diameter(); d != 4 {
		t.Fatalf("Diameter = %d, want 4", d)
	}
	// Memory homing: page vpn is banked at cluster vpn % 8; a CPU in
	// the home cluster reaches it for free.
	vpn := addr.VPN(11) // home cluster 3
	if topo.HomeCluster(vpn) != 3 {
		t.Fatalf("HomeCluster(11) = %d, want 3", topo.HomeCluster(vpn))
	}
	if h := topo.MemHopsFrom(topo.ClusterOf(12), vpn); h != 0 { // CPU 12 is in cluster 3
		t.Fatalf("home-cluster MemHops = %d, want 0", h)
	}
	if h := topo.MemHopsFrom(topo.ClusterOf(0), vpn); h != 3 { // cluster 0 -> cluster 3
		t.Fatalf("remote MemHops = %d, want 3", h)
	}
}

func TestTopologyValidate(t *testing.T) {
	// Too few seats for the CPU count.
	bad := Topology{MeshWidth: 2, MeshHeight: 1, ClusterCPUs: 2}
	if err := bad.Validate(8); err == nil {
		t.Fatal("Validate accepted 8 CPUs in 4 seats")
	}
	if err := bad.Validate(4); err != nil {
		t.Fatalf("Validate rejected exact fit: %v", err)
	}
	// Normalize fills in defaults that always validate.
	if err := (Topology{}).Normalize(256).Validate(256); err != nil {
		t.Fatalf("normalized zero topology invalid: %v", err)
	}
}

func TestTopologyClusterOfCapsAtLastCluster(t *testing.T) {
	// 3 clusters x 2 seats but only 5 CPUs: CPU 4 lands in the last
	// cluster, and out-of-range CPUs cap there instead of indexing
	// past the mesh.
	topo := Topology{MeshWidth: 3, MeshHeight: 1, ClusterCPUs: 2}.Normalize(5)
	if c := topo.ClusterOf(4); c != 2 {
		t.Fatalf("ClusterOf(4) = %d, want 2", c)
	}
	if c := topo.ClusterOf(99); c != 2 {
		t.Fatalf("ClusterOf(99) = %d, want capped 2", c)
	}
}
