package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/capability"
	"nasd/internal/client"
	"nasd/internal/crypt"
	"nasd/internal/drive"
	"nasd/internal/object"
	"nasd/internal/qos"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// driveID is the identity of every drive the benchmark serves.
const driveID = 1

// rigConfig is what differs between the workloads' drives. Everything
// else is what nasdd ships: an in-memory device behind
// blockdev.Instrument, a secure drive with the default 4 MiB block
// cache and the classic default engine, served over TCP.
type rigConfig struct {
	blocks int64
	// spindle, when set, puts a blockdev.Throttle (a serial spindle
	// model) under the drive.
	spindle *spindle
	// qos composes the overload-control plane as `nasdd -qos` does,
	// with these -qos-weights and -rpc-queue settings.
	qos      bool
	weights  map[string]int64
	rpcQueue int
}

type spindle struct {
	bytesPerSec int64
	perOp       time.Duration
}

// rig is one drive served over TCP loopback, plus the file-manager
// state (master key and key hierarchy) the benchmark mints
// capabilities from.
type rig struct {
	cfg    rigConfig
	master crypt.Key
	keys   *crypt.Hierarchy
	expiry int64
	mem    *blockdev.MemDisk
	fence  *fence
	reg    *telemetry.Registry // drive, qos and rpc-server metrics
	cliReg *telemetry.Registry // client metrics, shared by all connections
	drv    *drive.Drive
	ctl    *qos.Controller
	srv    *rpc.Server
	served chan struct{}
	addr   string
	conns  []*client.Drive
	nextID uint64
}

// newRig formats a fresh drive. tr, when non-nil, adds the traced run's
// wrappers.
func newRig(cfg rigConfig, seed int64, tr *tracer) (*rig, error) {
	var raw [crypt.KeySize]byte
	s := uint64(seed) ^ 0x6e617364
	for i := 0; i < len(raw); i += 8 {
		v := splitmix(&s)
		for j := 0; j < 8; j++ {
			raw[i+j] = byte(v >> (8 * j))
		}
	}
	master, err := crypt.KeyFromBytes(raw[:])
	if err != nil {
		return nil, err
	}
	r := &rig{
		cfg:    cfg,
		master: master,
		keys:   crypt.NewHierarchy(master),
		expiry: time.Now().Add(24 * time.Hour).UnixNano(),
		mem:    blockdev.NewMemDisk(blockBytes, cfg.blocks),
		cliReg: telemetry.NewRegistry(),
	}
	if err := r.attach(true, tr); err != nil {
		return nil, err
	}
	return r, nil
}

// attach composes the device stack, the drive, the optional qos plane
// and the rpc server over r.mem, formatting it or reopening it.
func (r *rig) attach(format bool, tr *tracer) error {
	r.fence = &fence{dev: r.mem}
	var dev blockdev.Device = r.fence
	if r.cfg.spindle != nil {
		dev = blockdev.NewThrottle(dev, r.cfg.spindle.bytesPerSec, r.cfg.spindle.perOp)
	}
	if tr != nil {
		dev = tr.device(dev)
	}
	r.reg = telemetry.NewRegistry()
	spans := telemetry.NewSpanLog(telemetry.DefaultSpanLogSize)
	idev := blockdev.Instrument(dev, r.reg).WithSpanLog(spans)
	dcfg := drive.Config{ID: driveID, Master: r.master, Secure: true, Metrics: r.reg, Media: idev, Spans: spans}
	dcfg.Store.DefaultBackend = object.BackendClassic
	var err error
	if format {
		r.drv, err = drive.NewFormat(idev, dcfg)
	} else {
		r.drv, err = drive.Open(idev, dcfg)
	}
	if err != nil {
		return fmt.Errorf("attach drive: %w", err)
	}
	var h rpc.Handler = r.drv
	if r.cfg.qos {
		if tr != nil {
			h = tr.driveHandler(h)
		}
		r.ctl = qos.New(h, qos.Config{
			Classify: drive.QoSClassify,
			Weights:  r.cfg.weights,
			Shed:     true,
			Metrics:  r.reg,
			Events:   r.drv.Events(),
		})
		h = r.ctl
	}
	if tr != nil {
		h = tr.entryHandler(h, !r.cfg.qos)
	}
	r.srv = rpc.NewServer(h,
		rpc.WithMetrics(r.reg),
		rpc.WithQueue(r.cfg.rpcQueue),
		rpc.WithProcNames(func(p uint16) string { return drive.Op(p).String() }))
	l, err := rpc.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	r.addr = l.Addr()
	r.served = make(chan struct{})
	go func() {
		defer close(r.served)
		r.srv.Serve(l)
	}()
	return nil
}

// dial opens a client connection to the drive.
func (r *rig) dial(opts ...client.Option) (*client.Drive, error) {
	conn, err := rpc.DialTCP(r.addr)
	if err != nil {
		return nil, err
	}
	r.nextID++
	cli := client.New(conn, driveID, r.nextID, append([]client.Option{client.WithMetrics(r.cliReg)}, opts...)...)
	r.conns = append(r.conns, cli)
	return cli, nil
}

// createPartition creates part with the given engine, as a storage
// administrator holding the master key would.
func (r *rig) createPartition(ctx context.Context, cli *client.Drive, part uint16, backend object.BackendKind) error {
	if err := cli.CreatePartitionBackend(ctx, crypt.KeyID{Type: crypt.MasterKey}, r.master, part, 0, backend); err != nil {
		return fmt.Errorf("create partition %d: %w", part, err)
	}
	return r.keys.AddPartition(part)
}

// mint issues a capability as the file manager would. obj 0 grants
// partition-scope rights.
func (r *rig) mint(part uint16, obj, ver uint64, rights capability.Rights) (*capability.Capability, error) {
	kid, key, err := r.keys.CurrentWorkingKey(part)
	if err != nil {
		return nil, err
	}
	c := capability.Mint(capability.Public{
		DriveID: driveID, Partition: part, Object: obj, ObjVer: ver,
		Rights: rights, Expiry: r.expiry, Key: kid,
	}, key)
	return &c, nil
}

// stop closes every connection and the server, waits for them, and
// fences the device so background work of this drive instance can no
// longer reach the media: the in-process equivalent of the daemon
// exiting.
func (r *rig) stop() {
	for _, c := range r.conns {
		c.Close()
	}
	r.conns = nil
	r.srv.Close()
	<-r.served
	if r.ctl != nil {
		r.ctl.Close()
	}
	r.fence.down.Store(true)
}

// reopen stops this drive instance and attaches a new one to the same
// media with drive.Open, as a restarted daemon would. tr, when non-nil,
// adds the traced run's wrappers to the new instance.
func (r *rig) reopen(tr *tracer) error {
	r.stop()
	r.ctl = nil
	return r.attach(false, tr)
}

// fence passes I/O through to the media until it is taken down, and
// fails it after.
type fence struct {
	dev  blockdev.Device
	down atomic.Bool
}

func (f *fence) BlockSize() int { return f.dev.BlockSize() }
func (f *fence) Blocks() int64  { return f.dev.Blocks() }

func (f *fence) ReadBlock(i int64, buf []byte) error {
	if f.down.Load() {
		return blockdev.ErrFailed
	}
	return f.dev.ReadBlock(i, buf)
}

func (f *fence) WriteBlock(i int64, data []byte) error {
	if f.down.Load() {
		return blockdev.ErrFailed
	}
	return f.dev.WriteBlock(i, data)
}

func (f *fence) ReadBlocks(start int64, buf []byte) error {
	if f.down.Load() {
		return blockdev.ErrFailed
	}
	return blockdev.ReadBlocks(f.dev, start, buf)
}

func (f *fence) WriteBlocks(start int64, data []byte) error {
	if f.down.Load() {
		return blockdev.ErrFailed
	}
	return blockdev.WriteBlocks(f.dev, start, data)
}

func (f *fence) Flush() error {
	if f.down.Load() {
		return blockdev.ErrFailed
	}
	return f.dev.Flush()
}

var _ blockdev.BlockRanger = (*fence)(nil)
