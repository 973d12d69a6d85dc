package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/batch"
	"repro/internal/platform"
)

// goldenWorkloadDigest is the SHA-256 of every batch in the golden
// family. It pins both emulators' output bit for bit: file names,
// sizes and homes, task names, compute times and file lists.
const goldenWorkloadDigest = "dc9f2daf23ab4d3f4ad945ac8889e63d629fe97dc7865f253054af7c4fab3387"

func hashBatch(d hash.Hash, b *batch.Batch) {
	var buf [8]byte
	u64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		d.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		d.Write([]byte(s))
	}
	u64(uint64(len(b.Files)))
	for i := range b.Files {
		f := &b.Files[i]
		str(f.Name)
		u64(uint64(f.Size))
		u64(uint64(f.Home))
	}
	u64(uint64(len(b.Tasks)))
	for i := range b.Tasks {
		t := &b.Tasks[i]
		str(t.Name)
		u64(math.Float64bits(t.Compute))
		u64(uint64(len(t.Files)))
		for _, f := range t.Files {
			u64(uint64(f))
		}
	}
}

// TestWorkloadGolden generates SAT and IMAGE batches over every
// overlap class, task counts 1–700, storage counts 0 (the default) to
// 7 and seeds 1–3, plus an IMAGE variant with HotGroups, MaxPatients
// and ComputeFactor set, and checks the digest of all of them.
func TestWorkloadGolden(t *testing.T) {
	d := sha256.New()
	for _, ov := range []Overlap{HighOverlap, MediumOverlap, LowOverlap} {
		for _, tasks := range []int{1, 8, 100, 700} {
			for _, storage := range []int{0, 2, 4, 7} {
				for seed := int64(1); seed <= 3; seed++ {
					sat, err := Sat(SatConfig{NumTasks: tasks, Overlap: ov, NumStorage: storage, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					hashBatch(d, sat)
					img, err := Image(ImageConfig{NumTasks: tasks, Overlap: ov, NumStorage: storage, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					hashBatch(d, img)
					set, err := Image(ImageConfig{NumTasks: tasks, Overlap: ov, NumStorage: storage, Seed: seed,
						HotGroups: 2 + int(seed), MaxPatients: []int{0, 3, 40}[seed-1],
						ComputeFactor: float64(1000*seed) * platform.PaperComputeFactor})
					if err != nil {
						t.Fatal(err)
					}
					hashBatch(d, set)
				}
			}
		}
	}
	if got := hex.EncodeToString(d.Sum(nil)); got != goldenWorkloadDigest {
		t.Errorf("workload digest %s, want %s", got, goldenWorkloadDigest)
	}
}
