// Package platform models the coupled storage + compute cluster system
// of the paper: a storage cluster that initially holds all files, a
// compute cluster whose nodes have local disk caches of limited size,
// the network paths between them, and (for the OSUMED configuration) a
// shared inter-cluster link that all remote transfers contend on.
//
// Bandwidths follow the paper's §7 test-bed description; the few values
// the paper does not publish (compute-node local-disk bandwidth) are
// stated constants documented in DESIGN.md.
package platform

import (
	"fmt"
	"math"
)

// MB is one megabyte in bytes. The paper quotes all sizes and
// bandwidths in MB, so helpers below use it.
const MB = 1 << 20

// GB is one gigabyte in bytes.
const GB = 1 << 30

// StorageNode is one node of the storage cluster. Files live on
// storage nodes; tasks never execute there.
type StorageNode struct {
	Name string
	// DiskBW is the node's disk read bandwidth in bytes/second.
	DiskBW float64
	// NetBW is the node's network interface bandwidth in bytes/second.
	NetBW float64
}

// ComputeNode is one node of the compute cluster.
type ComputeNode struct {
	Name string
	// DiskSpace is the local disk cache capacity in bytes. Zero or
	// negative means unlimited.
	DiskSpace int64
	// LocalReadBW is the local-disk read bandwidth in bytes/second,
	// used when a task reads its (already staged) input files.
	LocalReadBW float64
	// NetBW is the node's network interface bandwidth in bytes/second.
	NetBW float64
	// ComputeFactor converts input bytes to seconds of computation for
	// the emulated applications (the paper: 0.001 s per MB). Individual
	// tasks carry their own compute seconds; the factor is used by the
	// workload generators.
	ComputeFactor float64
}

// Platform is a full system description.
type Platform struct {
	Name    string
	Compute []ComputeNode
	Storage []StorageNode
	// InterBW is the bandwidth of the network path between a storage
	// node and a compute node, in bytes/second (per-path; the switch is
	// assumed non-blocking unless SharedLinkBW is set).
	InterBW float64
	// IntraBW is the network bandwidth between two compute nodes.
	IntraBW float64
	// SharedLinkBW, when positive, models a single shared link between
	// the storage and compute clusters (the paper's OSUMED↔OSC 100 Mbps
	// link): every remote transfer also serializes on this link.
	SharedLinkBW float64
}

// Validate checks internal consistency. Every bandwidth must be
// positive and finite: a NaN passes a bare "<= 0" test and would then
// poison every completion estimate that divides by it.
func (p *Platform) Validate() error {
	if len(p.Compute) == 0 {
		return fmt.Errorf("platform %q: no compute nodes", p.Name)
	}
	if len(p.Storage) == 0 {
		return fmt.Errorf("platform %q: no storage nodes", p.Name)
	}
	if !validBW(p.InterBW) || !validBW(p.IntraBW) {
		return fmt.Errorf("platform %q: bandwidths must be positive and finite", p.Name)
	}
	// A non-positive SharedLinkBW means there is no shared link.
	if math.IsNaN(p.SharedLinkBW) || math.IsInf(p.SharedLinkBW, 0) {
		return fmt.Errorf("platform %q: shared link bandwidth must be finite", p.Name)
	}
	for i, c := range p.Compute {
		if !validBW(c.LocalReadBW) || !validBW(c.NetBW) {
			return fmt.Errorf("platform %q: compute node %d has a non-positive or non-finite bandwidth", p.Name, i)
		}
	}
	for i, s := range p.Storage {
		if !validBW(s.DiskBW) || !validBW(s.NetBW) {
			return fmt.Errorf("platform %q: storage node %d has a non-positive or non-finite bandwidth", p.Name, i)
		}
	}
	return nil
}

// validBW reports whether bw is a usable bandwidth: positive and
// finite (false for NaN).
func validBW(bw float64) bool { return bw > 0 && !math.IsInf(bw, 1) }

// RemoteBW returns the effective bandwidth of a remote transfer from
// storage node s to compute node c: the minimum of the storage disk
// bandwidth, both NICs, the inter-cluster path, and the shared link if
// present (the paper's "minimum of I/O and network bandwidth between
// any storage and compute node pair").
func (p *Platform) RemoteBW(s, c int) float64 {
	bw := math.Min(p.Storage[s].DiskBW, p.Storage[s].NetBW)
	bw = math.Min(bw, p.Compute[c].NetBW)
	bw = math.Min(bw, p.InterBW)
	if p.SharedLinkBW > 0 {
		bw = math.Min(bw, p.SharedLinkBW)
	}
	return bw
}

// ReplicaBW returns the effective bandwidth of a compute-to-compute
// replication from node i to node j.
func (p *Platform) ReplicaBW(i, j int) float64 {
	bw := math.Min(p.Compute[i].NetBW, p.Compute[j].NetBW)
	return math.Min(bw, p.IntraBW)
}

// MinRemoteBW returns the paper's BW_s: the minimum remote-transfer
// bandwidth over all storage/compute node pairs.
func (p *Platform) MinRemoteBW() float64 {
	bw := math.Inf(1)
	for s := range p.Storage {
		for c := range p.Compute {
			bw = math.Min(bw, p.RemoteBW(s, c))
		}
	}
	return bw
}

// MinReplicaBW returns the paper's BW_c: the minimum compute-to-compute
// bandwidth over distinct node pairs. With two or more nodes every
// node's NIC is on some pair, so that minimum is the smallest NetBW
// or IntraBW.
func (p *Platform) MinReplicaBW() float64 {
	if len(p.Compute) < 2 {
		return p.IntraBW
	}
	bw := p.IntraBW
	for _, c := range p.Compute {
		bw = math.Min(bw, c.NetBW)
	}
	return bw
}

// AggregateDiskSpace returns the total compute-cluster disk space, or
// a negative value when any node is unlimited.
func (p *Platform) AggregateDiskSpace() int64 {
	var sum int64
	for _, c := range p.Compute {
		if c.DiskSpace <= 0 {
			return -1
		}
		sum += c.DiskSpace
	}
	return sum
}

// NumCompute returns the number of compute nodes.
func (p *Platform) NumCompute() int { return len(p.Compute) }

// NumStorage returns the number of storage nodes.
func (p *Platform) NumStorage() int { return len(p.Storage) }

// Paper test-bed constants (§7). The compute-node local disk bandwidth
// is not published; 100 MB/s read is a representative 2006-era local
// RAID figure and is held constant across all experiments so that it
// affects every scheduler identically.
const (
	// XIODiskBW is the per-node disk bandwidth of the XIO storage
	// system ("around 210 MB/sec").
	XIODiskBW = 210 * MB
	// OSUMEDDiskBW is the midpoint of the published 18-25 MB/s range.
	OSUMEDDiskBW = 21 * MB
	// OSUMEDLinkBW is the 100 Mbps shared link between the OSUMED and
	// OSC clusters (~12.5 MB/s).
	OSUMEDLinkBW = 12.5 * MB
	// InfinibandBW approximates the 8 Gbps Infiniband fabric of the
	// OSC compute cluster (~1 GB/s).
	InfinibandBW = 1000 * MB
	// FastEthernetBW is 100 Mbps switched Ethernet (~12.5 MB/s).
	FastEthernetBW = 12.5 * MB
	// ComputeLocalReadBW is the assumed compute-node local disk read
	// bandwidth (not published; see DESIGN.md).
	ComputeLocalReadBW = 100 * MB
	// PaperComputeFactor is the published application compute cost:
	// ~0.001 seconds per MB of input data.
	PaperComputeFactor = 0.001 / MB
)

// XIO builds the paper's first system: OSC compute cluster coupled to
// the XIO storage cluster over Infiniband. diskSpace bounds each
// compute node's cache (<=0 for unlimited).
func XIO(computeNodes, storageNodes int, diskSpace int64) *Platform {
	p := &Platform{
		Name:    "OSC+XIO",
		InterBW: InfinibandBW,
		IntraBW: InfinibandBW,
	}
	for i := 0; i < computeNodes; i++ {
		p.Compute = append(p.Compute, ComputeNode{
			Name:          fmt.Sprintf("osc%02d", i),
			DiskSpace:     diskSpace,
			LocalReadBW:   ComputeLocalReadBW,
			NetBW:         InfinibandBW,
			ComputeFactor: PaperComputeFactor,
		})
	}
	for i := 0; i < storageNodes; i++ {
		p.Storage = append(p.Storage, StorageNode{
			Name:   fmt.Sprintf("xio%02d", i),
			DiskBW: XIODiskBW,
			NetBW:  InfinibandBW,
		})
	}
	return p
}

// OSUMED builds the paper's second system: the OSC compute cluster with
// the OSUMED Pentium-III storage cluster reached over a shared 100 Mbps
// link.
func OSUMED(computeNodes, storageNodes int, diskSpace int64) *Platform {
	p := &Platform{
		Name:         "OSC+OSUMED",
		InterBW:      FastEthernetBW,
		IntraBW:      InfinibandBW,
		SharedLinkBW: OSUMEDLinkBW,
	}
	for i := 0; i < computeNodes; i++ {
		p.Compute = append(p.Compute, ComputeNode{
			Name:          fmt.Sprintf("osc%02d", i),
			DiskSpace:     diskSpace,
			LocalReadBW:   ComputeLocalReadBW,
			NetBW:         InfinibandBW,
			ComputeFactor: PaperComputeFactor,
		})
	}
	for i := 0; i < storageNodes; i++ {
		p.Storage = append(p.Storage, StorageNode{
			Name:   fmt.Sprintf("osumed%02d", i),
			DiskBW: OSUMEDDiskBW,
			NetBW:  FastEthernetBW,
		})
	}
	return p
}

// Uniform builds a simple homogeneous platform for tests and examples.
func Uniform(computeNodes, storageNodes int, diskSpace int64, remoteBW, intraBW float64) *Platform {
	p := &Platform{Name: "uniform", InterBW: remoteBW, IntraBW: intraBW}
	for i := 0; i < computeNodes; i++ {
		p.Compute = append(p.Compute, ComputeNode{
			Name:          fmt.Sprintf("c%02d", i),
			DiskSpace:     diskSpace,
			LocalReadBW:   remoteBW * 4,
			NetBW:         intraBW,
			ComputeFactor: PaperComputeFactor,
		})
	}
	for i := 0; i < storageNodes; i++ {
		p.Storage = append(p.Storage, StorageNode{
			Name:   fmt.Sprintf("s%02d", i),
			DiskBW: remoteBW,
			NetBW:  remoteBW,
		})
	}
	return p
}
