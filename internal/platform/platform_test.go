package platform

import (
	"math"
	"math/rand"
	"testing"
)

func TestXIOPreset(t *testing.T) {
	p := XIO(4, 4, 0)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumCompute() != 4 || p.NumStorage() != 4 {
		t.Fatalf("shape %d/%d", p.NumCompute(), p.NumStorage())
	}
	// XIO remote path is disk-bound at 210 MB/s.
	if got := p.RemoteBW(0, 0); got != XIODiskBW {
		t.Fatalf("remote bw = %v, want %v", got, float64(XIODiskBW))
	}
	// Compute fabric is Infiniband.
	if got := p.ReplicaBW(0, 1); got != InfinibandBW {
		t.Fatalf("replica bw = %v", got)
	}
	if p.SharedLinkBW != 0 {
		t.Fatal("XIO must not have a shared link")
	}
}

func TestOSUMEDPreset(t *testing.T) {
	p := OSUMED(4, 4, 0)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// OSUMED remote path is capped by the 100 Mbps shared link.
	if got := p.RemoteBW(0, 0); got != OSUMEDLinkBW {
		t.Fatalf("remote bw = %v, want %v", got, float64(OSUMEDLinkBW))
	}
	if p.SharedLinkBW != OSUMEDLinkBW {
		t.Fatal("OSUMED needs the shared link")
	}
	// Replication stays on the fast compute fabric — that asymmetry is
	// the whole point of Figure 5(a).
	if got := p.ReplicaBW(0, 1); got != InfinibandBW {
		t.Fatalf("replica bw = %v", got)
	}
}

func TestMinBandwidths(t *testing.T) {
	p := XIO(3, 2, 0)
	if got := p.MinRemoteBW(); got != XIODiskBW {
		t.Fatalf("min remote = %v", got)
	}
	if got := p.MinReplicaBW(); got != InfinibandBW {
		t.Fatalf("min replica = %v", got)
	}
	one := XIO(1, 1, 0)
	if got := one.MinReplicaBW(); got != one.IntraBW {
		t.Fatalf("single-node replica bw = %v", got)
	}
}

func TestAggregateDiskSpace(t *testing.T) {
	p := XIO(4, 2, 10*GB)
	if got := p.AggregateDiskSpace(); got != 40*GB {
		t.Fatalf("aggregate = %d", got)
	}
	u := XIO(4, 2, 0)
	if got := u.AggregateDiskSpace(); got >= 0 {
		t.Fatalf("unlimited aggregate = %d, want negative sentinel", got)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		edit func(p *Platform)
	}{
		{"no compute nodes", func(p *Platform) { p.Compute = nil }},
		{"no storage nodes", func(p *Platform) { p.Storage = nil }},
		{"zero InterBW", func(p *Platform) { p.InterBW = 0 }},
		{"NaN InterBW", func(p *Platform) { p.InterBW = nan }},
		{"+Inf InterBW", func(p *Platform) { p.InterBW = inf }},
		{"NaN IntraBW", func(p *Platform) { p.IntraBW = nan }},
		{"+Inf IntraBW", func(p *Platform) { p.IntraBW = inf }},
		{"NaN SharedLinkBW", func(p *Platform) { p.SharedLinkBW = nan }},
		{"+Inf SharedLinkBW", func(p *Platform) { p.SharedLinkBW = inf }},
		{"-Inf SharedLinkBW", func(p *Platform) { p.SharedLinkBW = -inf }},
		{"negative compute LocalReadBW", func(p *Platform) { p.Compute[1].LocalReadBW = -1 }},
		{"NaN compute LocalReadBW", func(p *Platform) { p.Compute[1].LocalReadBW = nan }},
		{"+Inf compute LocalReadBW", func(p *Platform) { p.Compute[1].LocalReadBW = inf }},
		{"NaN compute NetBW", func(p *Platform) { p.Compute[0].NetBW = nan }},
		{"+Inf compute NetBW", func(p *Platform) { p.Compute[0].NetBW = inf }},
		{"-Inf compute NetBW", func(p *Platform) { p.Compute[0].NetBW = -inf }},
		{"NaN storage DiskBW", func(p *Platform) { p.Storage[1].DiskBW = nan }},
		{"+Inf storage DiskBW", func(p *Platform) { p.Storage[1].DiskBW = inf }},
		{"NaN storage NetBW", func(p *Platform) { p.Storage[0].NetBW = nan }},
		{"+Inf storage NetBW", func(p *Platform) { p.Storage[0].NetBW = inf }},
	}
	for _, tc := range cases {
		p := XIO(2, 2, 0)
		tc.edit(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// No shared link is spelled as zero or a negative value.
	for _, v := range []float64{0, -1} {
		p := XIO(2, 2, 0)
		p.SharedLinkBW = v
		if err := p.Validate(); err != nil {
			t.Errorf("SharedLinkBW %v rejected: %v", v, err)
		}
	}
}

// TestMinReplicaBWMatchesPairwise checks the O(C) minimum against the
// definition, the minimum of ReplicaBW over all distinct node pairs,
// on random heterogeneous platforms.
func TestMinReplicaBWMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + trial%3
		if trial >= 30 {
			n = 1 + rng.Intn(12)
		}
		p := XIO(n, 1, 0)
		p.IntraBW = float64(1+rng.Intn(1000)) * MB
		for i := range p.Compute {
			p.Compute[i].NetBW = float64(1+rng.Intn(1000)) * MB
		}
		want := p.IntraBW
		if n >= 2 {
			want = math.Inf(1)
			for i := range p.Compute {
				for j := range p.Compute {
					if i != j {
						want = math.Min(want, p.ReplicaBW(i, j))
					}
				}
			}
		}
		if got := p.MinReplicaBW(); got != want {
			t.Fatalf("trial %d (%d nodes): MinReplicaBW = %v, pairwise minimum %v", trial, n, got, want)
		}
	}
}

func TestPaperConstants(t *testing.T) {
	// Guard the published test-bed numbers against accidental edits.
	if XIODiskBW != 210*MB {
		t.Error("XIO disk bandwidth drifted from the published 210 MB/s")
	}
	if OSUMEDLinkBW != 12.5*MB {
		t.Error("OSUMED link drifted from 100 Mbps")
	}
	if math.Abs(PaperComputeFactor*MB-0.001) > 1e-12 {
		t.Error("compute factor drifted from 0.001 s/MB")
	}
}

func TestUniform(t *testing.T) {
	p := Uniform(3, 2, GB, 10*MB, 100*MB)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.RemoteBW(0, 1); got != 10*MB {
		t.Fatalf("remote bw = %v", got)
	}
	if got := p.ReplicaBW(0, 1); got != 100*MB {
		t.Fatalf("replica bw = %v", got)
	}
}
