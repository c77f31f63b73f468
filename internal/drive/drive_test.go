package drive

import (
	"math"
	"testing"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/crypt"
	"nasd/internal/rpc"
)

// Table 1 of the paper: total instructions and communications share for
// read/write x cold/warm x four request sizes, plus the estimated
// operation times at 200 MHz / CPI 2.2.
type table1Row struct {
	op       Op
	cold     bool
	size     int
	instr    float64 // paper's total instruction count
	commsPct float64 // paper's communications percentage
	msec     float64 // paper's estimated operation time
}

var table1 = []table1Row{
	{OpReadObject, true, 1, 46e3, 70, 0.51},
	{OpReadObject, true, 8 << 10, 67e3, 79, 0.74},
	{OpReadObject, true, 64 << 10, 247e3, 90, 2.7},
	{OpReadObject, true, 512 << 10, 1488e3, 92, 16.4},
	{OpReadObject, false, 1, 38e3, 92, 0.42},
	{OpReadObject, false, 8 << 10, 57e3, 94, 0.63},
	{OpReadObject, false, 64 << 10, 224e3, 97, 2.5},
	{OpReadObject, false, 512 << 10, 1410e3, 97, 15.6},
	{OpWriteObject, true, 1, 43e3, 73, 0.47},
	{OpWriteObject, true, 8 << 10, 71e3, 82, 0.78},
	{OpWriteObject, true, 64 << 10, 269e3, 92, 3.0},
	{OpWriteObject, true, 512 << 10, 1947e3, 96, 21.3},
	{OpWriteObject, false, 1, 37e3, 92, 0.41},
	{OpWriteObject, false, 8 << 10, 57e3, 94, 0.64},
	{OpWriteObject, false, 64 << 10, 253e3, 97, 2.8},
	{OpWriteObject, false, 512 << 10, 1871e3, 97, 20.4},
}

// TestCostModelMatchesTable1 checks the instruction model lands within
// 20% of every Table 1 cell (EXPERIMENTS.md reports the exact
// deviations). The paper's warm-cache small-request comms share is the
// loosest fit; totals are much tighter.
func TestCostModelMatchesTable1(t *testing.T) {
	for _, row := range table1 {
		c := CostModel(row.op, row.size, row.cold)
		relErr := math.Abs(float64(c.Total())-row.instr) / row.instr
		if relErr > 0.20 {
			t.Errorf("%v cold=%v size=%d: model %d instr, paper %.0f (%.1f%% off)",
				row.op, row.cold, row.size, c.Total(), row.instr, 100*relErr)
		}
		// Communications dominates everywhere in the paper (70-97%);
		// the model must reproduce that domination.
		if pct := c.CommsPercent(); pct < row.commsPct-15 || pct > row.commsPct+10 {
			t.Errorf("%v cold=%v size=%d: comms%% = %.1f, paper %.0f",
				row.op, row.cold, row.size, pct, row.commsPct)
		}
		// Estimated op time at 200 MHz / CPI 2.2 within 20%.
		gotMs := c.Time(TargetMHz, TargetCPI).Seconds() * 1e3
		if math.Abs(gotMs-row.msec)/row.msec > 0.20 {
			t.Errorf("%v cold=%v size=%d: time %.2f ms, paper %.2f ms",
				row.op, row.cold, row.size, gotMs, row.msec)
		}
	}
}

func TestCostModelMonotonicInSize(t *testing.T) {
	for _, op := range []Op{OpReadObject, OpWriteObject} {
		prev := uint64(0)
		for _, size := range []int{1, 1024, 8192, 65536, 524288} {
			c := CostModel(op, size, false).Total()
			if c <= prev {
				t.Errorf("%v: cost not increasing at size %d", op, size)
			}
			prev = c
		}
	}
}

func TestCostModelColdCostsMore(t *testing.T) {
	for _, size := range []int{1, 8192, 65536, 524288} {
		warm := CostModel(OpReadObject, size, false).Total()
		cold := CostModel(OpReadObject, size, true).Total()
		if cold <= warm {
			t.Errorf("size %d: cold (%d) not above warm (%d)", size, cold, warm)
		}
	}
}

func TestOpCostTime(t *testing.T) {
	c := OpCost{Comms: 100_000, Object: 100_000}
	// 200k instructions at CPI 2.2 on 200 MHz = 2.2 ms.
	got := c.Time(200, 2.2)
	want := 2200 * time.Microsecond
	if got < want-time.Microsecond || got > want+time.Microsecond {
		t.Fatalf("time = %v, want %v", got, want)
	}
}

func TestOpString(t *testing.T) {
	if OpReadObject.String() != "read" || OpSetKey.String() != "setkey" {
		t.Fatal("op names wrong")
	}
	if Op(999).String() == "" {
		t.Fatal("unknown op empty")
	}
}

func TestUnknownOpRejected(t *testing.T) {
	dev := blockdev.NewMemDisk(4096, 1024)
	d, err := NewFormat(dev, Config{ID: 1, Master: crypt.NewRandomKey()})
	if err != nil {
		t.Fatal(err)
	}
	rep := d.Handle(&rpc.Request{Proc: 999})
	if rep.Status != rpc.StatusBadRequest {
		t.Fatalf("status = %v", rep.Status)
	}
}

func TestMalformedArgsRejected(t *testing.T) {
	dev := blockdev.NewMemDisk(4096, 1024)
	d, err := NewFormat(dev, Config{ID: 1, Master: crypt.NewRandomKey()})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []Op{OpReadObject, OpWriteObject, OpGetAttr, OpSetAttr,
		OpCreateObject, OpCreatePartition, OpSetKey, OpExecute} {
		rep := d.Handle(&rpc.Request{Proc: uint16(op), Args: []byte{1}})
		if rep.Status != rpc.StatusBadRequest {
			t.Errorf("%v with truncated args: %v", op, rep.Status)
		}
	}
}

func TestOpenRebuildsPartitionKeys(t *testing.T) {
	dev := blockdev.NewMemDisk(4096, 2048)
	master := crypt.NewRandomKey()
	d, err := NewFormat(dev, Config{ID: 1, Master: master})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Store().CreatePartition(3, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Keys().AddPartition(3); err != nil {
		t.Fatal(err)
	}
	if err := d.Store().Flush(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dev, Config{ID: 1, Master: master})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d2.Keys().CurrentWorkingKey(3); err != nil {
		t.Fatalf("partition keys not rebuilt: %v", err)
	}
}

func TestProtoRoundTrips(t *testing.T) {
	ra := ReadArgs{Partition: 2, Object: 42, Offset: 100, Length: 4096}
	got, err := DecodeReadArgs(ra.Encode())
	if err != nil || got != ra {
		t.Fatalf("ReadArgs: %+v, %v", got, err)
	}
	wa := WriteArgs{Partition: 1, Object: 7, Offset: 9}
	gw, err := DecodeWriteArgs(wa.Encode())
	if err != nil || gw != wa {
		t.Fatalf("WriteArgs: %+v, %v", gw, err)
	}
	sa := SetAttrArgs{Partition: 1, Object: 2, Mask: 5}
	sa.Attrs.Size = 100
	sa.Attrs.CreateTime = time.Unix(1234, 0).UTC()
	copy(sa.Attrs.Uninterp[:], []byte("attrs"))
	gs, err := DecodeSetAttrArgs(sa.Encode())
	if err != nil || gs.Attrs.Size != 100 || gs.Attrs.CreateTime.Unix() != 1234 {
		t.Fatalf("SetAttrArgs: %+v, %v", gs, err)
	}
	ka := SetKeyArgs{
		Target:  KeyRef{Type: 3, Partition: 1, Version: 2},
		Key:     make([]byte, crypt.KeySize),
		AuthKey: KeyRef{Type: 1},
	}
	gk, err := DecodeSetKeyArgs(ka.Encode())
	if err != nil || gk.Target != ka.Target || len(gk.Key) != crypt.KeySize {
		t.Fatalf("SetKeyArgs: %+v, %v", gk, err)
	}
	ea := ExecuteArgs{Partition: 1, Object: 2, Kernel: "freqset", Params: []byte("p")}
	ge, err := DecodeExecuteArgs(ea.Encode())
	if err != nil || ge.Kernel != "freqset" || string(ge.Params) != "p" {
		t.Fatalf("ExecuteArgs: %+v, %v", ge, err)
	}
	ids, err := DecodeIDListReply(EncodeIDListReply([]uint64{1, 2, 3}))
	if err != nil || len(ids) != 3 || ids[2] != 3 {
		t.Fatalf("IDList: %v, %v", ids, err)
	}
}

// TestStatsArgsOneWireShape checks the stats request has exactly one
// wire shape: the full record round-trips and every truncation of it
// is rejected rather than read as an older, shorter record.
func TestStatsArgsOneWireShape(t *testing.T) {
	a := StatsArgs{TraceN: 8, SpanTrace: 9, SpanN: 10, EventN: 11, EventMin: 2}
	b := a.Encode()
	if got, err := DecodeStatsArgs(b); err != nil || got != a {
		t.Fatalf("StatsArgs: %+v, %v", got, err)
	}
	for n := 0; n < len(b); n++ {
		if got, err := DecodeStatsArgs(b[:n]); err == nil {
			t.Fatalf("%d-byte truncated record decoded as %+v", n, got)
		}
	}
}

// TestUntracedRequestLogged checks that a request arriving without a
// trace context still lands in the drive's request log under a local
// trace ID, with the annotations `nasdctl stats N` prints.
func TestUntracedRequestLogged(t *testing.T) {
	dev := blockdev.NewMemDisk(4096, 1024)
	d, err := NewFormat(dev, Config{ID: 1, Master: crypt.NewRandomKey()})
	if err != nil {
		t.Fatal(err)
	}
	if rep := d.Handle(&rpc.Request{Proc: uint16(OpFlush)}); rep.Status != rpc.StatusOK {
		t.Fatalf("flush: %v", rep.Status)
	}
	reqs := d.Spans().Requests(8)
	if len(reqs) != 1 {
		t.Fatalf("request log holds %d spans, want 1", len(reqs))
	}
	r := reqs[0]
	if r.Name != "drive.flush" || r.TraceID == 0 || r.Note("status") != "ok" || r.Note("bytes_in") != "0" {
		t.Fatalf("request span = %+v", r)
	}
}

func TestKernelExecution(t *testing.T) {
	dev := blockdev.NewMemDisk(4096, 2048)
	d, err := NewFormat(dev, Config{ID: 1, Master: crypt.NewRandomKey()})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Store().CreatePartition(1, 0); err != nil {
		t.Fatal(err)
	}
	id, err := d.Store().Create(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Store().Write(1, id, 0, []byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	// A kernel that sums bytes on the drive.
	d.RegisterKernel("sum", func(params []byte, data func(uint64, int) ([]byte, error), size uint64) ([]byte, error) {
		var total byte
		b, err := data(0, int(size))
		if err != nil {
			return nil, err
		}
		for _, v := range b {
			total += v
		}
		return []byte{total}, nil
	})
	args := (&ExecuteArgs{Partition: 1, Object: id, Kernel: "sum"}).Encode()
	rep := d.Handle(&rpc.Request{Proc: uint16(OpExecute), Args: args})
	if rep.Status != rpc.StatusOK || len(rep.Data) != 1 || rep.Data[0] != 15 {
		t.Fatalf("kernel result = %+v", rep)
	}
	// Unknown kernels are rejected.
	args = (&ExecuteArgs{Partition: 1, Object: id, Kernel: "nope"}).Encode()
	if rep := d.Handle(&rpc.Request{Proc: uint16(OpExecute), Args: args}); rep.Status != rpc.StatusBadRequest {
		t.Fatalf("unknown kernel status = %v", rep.Status)
	}
}
