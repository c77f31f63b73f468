package client

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"nasd/internal/blockdev"
	"nasd/internal/capability"
	"nasd/internal/crypt"
	"nasd/internal/drive"
	"nasd/internal/object"
	"nasd/internal/rpc"
)

// testCtx is the background context threaded through the package tests.
var testCtx = context.Background()

// testRig wires a secure drive to a client over an in-process transport
// and plays the file manager's role of minting capabilities from the
// shared master key.
type testRig struct {
	drv      *drive.Drive
	cli      *Drive
	srv      *rpc.Server
	listener *rpc.InProcListener
	fmKeys   *crypt.Hierarchy // file manager's independently derived copy
	master   crypt.Key
}

func newRig(t *testing.T, secure bool) *testRig {
	t.Helper()
	master := crypt.NewRandomKey()
	dev := blockdev.NewMemDisk(4096, 8192)
	drv, err := drive.NewFormat(dev, drive.Config{ID: 7, Master: master, Secure: secure})
	if err != nil {
		t.Fatal(err)
	}
	l := rpc.NewInProcListener("drive7")
	srv := drv.Serve(l)
	t.Cleanup(srv.Close)
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cli := New(conn, 7, 1001, WithSecurity(secure))
	t.Cleanup(func() { cli.Close() })
	return &testRig{drv: drv, cli: cli, srv: srv, listener: l,
		fmKeys: crypt.NewHierarchy(master), master: master}
}

// mkpart creates a partition on the drive and mirrors the key state in
// the file manager's hierarchy.
func (r *testRig) mkpart(t *testing.T, id uint16, quota int64) {
	t.Helper()
	if err := r.cli.CreatePartition(testCtx, crypt.KeyID{Type: crypt.MasterKey}, r.master, id, quota); err != nil {
		t.Fatal(err)
	}
	if err := r.fmKeys.AddPartition(id); err != nil {
		t.Fatal(err)
	}
}

// mint issues a capability the way a file manager would.
func (r *testRig) mint(t *testing.T, part uint16, obj, objVer uint64, rights capability.Rights) capability.Capability {
	t.Helper()
	kid, key, err := r.fmKeys.CurrentWorkingKey(part)
	if err != nil {
		t.Fatal(err)
	}
	pub := capability.Public{
		DriveID:   7,
		Partition: part,
		Object:    obj,
		ObjVer:    objVer,
		Rights:    rights,
		Expiry:    time.Now().Add(time.Hour).UnixNano(),
		Key:       kid,
	}
	return capability.Mint(pub, key)
}

func TestSecureEndToEnd(t *testing.T) {
	r := newRig(t, true)
	r.mkpart(t, 1, 0)

	createCap := r.mint(t, 1, 0, 0, capability.CreateObj)
	id, err := r.cli.Create(testCtx, &createCap, 1)
	if err != nil {
		t.Fatal(err)
	}

	rwCap := r.mint(t, 1, id, 1, capability.Read|capability.Write|capability.GetAttr)
	data := bytes.Repeat([]byte("nasd!"), 4000)
	if err := r.cli.Write(testCtx, &rwCap, 1, id, 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := r.cli.Read(testCtx, &rwCap, 1, id, 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	at, err := r.cli.GetAttr(testCtx, &rwCap, 1, id)
	if err != nil {
		t.Fatal(err)
	}
	if at.Size != uint64(len(data)) {
		t.Fatalf("size = %d", at.Size)
	}
}

func TestInsecureModeSkipsChecks(t *testing.T) {
	r := newRig(t, false)
	r.mkpart(t, 1, 0)
	// No capability at all.
	id, err := r.cli.Create(testCtx, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.cli.Write(testCtx, nil, 1, id, 0, []byte("open season")); err != nil {
		t.Fatal(err)
	}
	got, err := r.cli.Read(testCtx, nil, 1, id, 0, 11)
	if err != nil || string(got) != "open season" {
		t.Fatalf("read = %q, %v", got, err)
	}
}

func TestMissingCapabilityRejected(t *testing.T) {
	r := newRig(t, true)
	r.mkpart(t, 1, 0)
	if _, err := r.cli.Create(testCtx, nil, 1); !errors.Is(err, ErrAuth) {
		t.Fatalf("create without capability: %v", err)
	}
}

func TestInsufficientRightsRejected(t *testing.T) {
	r := newRig(t, true)
	r.mkpart(t, 1, 0)
	createCap := r.mint(t, 1, 0, 0, capability.CreateObj)
	id, err := r.cli.Create(testCtx, &createCap, 1)
	if err != nil {
		t.Fatal(err)
	}
	roCap := r.mint(t, 1, id, 1, capability.Read)
	if err := r.cli.Write(testCtx, &roCap, 1, id, 0, []byte("x")); !errors.Is(err, ErrAuth) {
		t.Fatalf("write with read-only capability: %v", err)
	}
}

func TestVersionBumpRevokes(t *testing.T) {
	r := newRig(t, true)
	r.mkpart(t, 1, 0)
	createCap := r.mint(t, 1, 0, 0, capability.CreateObj)
	id, _ := r.cli.Create(testCtx, &createCap, 1)
	rwCap := r.mint(t, 1, id, 1, capability.Read|capability.Write|capability.SetAttr)
	if err := r.cli.Write(testCtx, &rwCap, 1, id, 0, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// File manager revokes by bumping the logical version.
	if _, err := r.cli.BumpVersion(testCtx, &rwCap, 1, id); err != nil {
		t.Fatal(err)
	}
	if _, err := r.cli.Read(testCtx, &rwCap, 1, id, 0, 2); !errors.Is(err, ErrAuth) {
		t.Fatalf("read with revoked capability: %v", err)
	}
	// A fresh capability against the new version works.
	fresh := r.mint(t, 1, id, 2, capability.Read)
	if got, err := r.cli.Read(testCtx, &fresh, 1, id, 0, 2); err != nil || string(got) != "v1" {
		t.Fatalf("read with fresh capability: %q, %v", got, err)
	}
}

func TestByteRangeRestriction(t *testing.T) {
	r := newRig(t, true)
	r.mkpart(t, 1, 0)
	createCap := r.mint(t, 1, 0, 0, capability.CreateObj)
	id, _ := r.cli.Create(testCtx, &createCap, 1)
	w := r.mint(t, 1, id, 1, capability.Write)
	if err := r.cli.Write(testCtx, &w, 1, id, 0, make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}

	kid, key, _ := r.fmKeys.CurrentWorkingKey(1)
	pub := capability.Public{
		DriveID: 7, Partition: 1, Object: id, ObjVer: 1,
		Rights: capability.Read, Offset: 0, Length: 4096,
		Expiry: time.Now().Add(time.Hour).UnixNano(), Key: kid,
	}
	ranged := capability.Mint(pub, key)
	if _, err := r.cli.Read(testCtx, &ranged, 1, id, 0, 4096); err != nil {
		t.Fatalf("in-range read: %v", err)
	}
	if _, err := r.cli.Read(testCtx, &ranged, 1, id, 4096, 4096); !errors.Is(err, ErrAuth) {
		t.Fatalf("out-of-range read: %v", err)
	}
}

func TestWorkingKeyRotationViaSetKey(t *testing.T) {
	r := newRig(t, true)
	r.mkpart(t, 1, 0)
	createCap := r.mint(t, 1, 0, 0, capability.CreateObj)
	id, _ := r.cli.Create(testCtx, &createCap, 1)
	oldCap := r.mint(t, 1, id, 1, capability.Read)

	// File manager rotates the working key on both sides.
	newID, err := r.fmKeys.RotateWorkingKey(1)
	if err != nil {
		t.Fatal(err)
	}
	newKey, _ := r.fmKeys.Lookup(newID)
	if err := r.cli.SetKey(testCtx, crypt.KeyID{Type: crypt.MasterKey}, r.master, newID, newKey); err != nil {
		t.Fatal(err)
	}
	// Old capabilities die wholesale.
	if _, err := r.cli.Read(testCtx, &oldCap, 1, id, 0, 1); !errors.Is(err, ErrAuth) {
		t.Fatalf("capability survived key rotation: %v", err)
	}
	// New ones verify.
	fresh := r.mint(t, 1, id, 1, capability.Read)
	if _, err := r.cli.Read(testCtx, &fresh, 1, id, 0, 1); err != nil {
		t.Fatalf("fresh capability after rotation: %v", err)
	}
}

func TestAdminRequiresDriveKey(t *testing.T) {
	r := newRig(t, true)
	wrong := crypt.NewRandomKey()
	err := r.cli.CreatePartition(testCtx, crypt.KeyID{Type: crypt.MasterKey}, wrong, 5, 0)
	if !errors.Is(err, ErrAuth) {
		t.Fatalf("partition create with wrong key: %v", err)
	}
	// Working keys cannot authorize management.
	r.mkpart(t, 1, 0)
	kid, key, _ := r.fmKeys.CurrentWorkingKey(1)
	err = r.cli.CreatePartition(testCtx, kid, key, 6, 0)
	if !errors.Is(err, ErrAuth) {
		t.Fatalf("partition create with working key: %v", err)
	}
}

func TestPartitionManagementRoundTrip(t *testing.T) {
	r := newRig(t, true)
	auth := crypt.KeyID{Type: crypt.MasterKey}
	r.mkpart(t, 2, 128)
	p, err := r.cli.GetPartition(testCtx, auth, r.master, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.QuotaBlocks != 128 {
		t.Fatalf("quota = %d", p.QuotaBlocks)
	}
	if err := r.cli.ResizePartition(testCtx, auth, r.master, 2, 256); err != nil {
		t.Fatal(err)
	}
	p, _ = r.cli.GetPartition(testCtx, auth, r.master, 2)
	if p.QuotaBlocks != 256 {
		t.Fatalf("resized quota = %d", p.QuotaBlocks)
	}
	if err := r.cli.RemovePartition(testCtx, auth, r.master, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.cli.GetPartition(testCtx, auth, r.master, 2); err == nil {
		t.Fatal("removed partition still present")
	}
}

func TestVersionObjectAndList(t *testing.T) {
	r := newRig(t, true)
	r.mkpart(t, 1, 0)
	createCap := r.mint(t, 1, 0, 0, capability.CreateObj)
	id, _ := r.cli.Create(testCtx, &createCap, 1)
	rw := r.mint(t, 1, id, 1, capability.Read|capability.Write|capability.Version)
	if err := r.cli.Write(testCtx, &rw, 1, id, 0, []byte("snapshot me")); err != nil {
		t.Fatal(err)
	}
	snapID, err := r.cli.VersionObject(testCtx, &rw, 1, id)
	if err != nil {
		t.Fatal(err)
	}
	snapCap := r.mint(t, 1, snapID, 1, capability.Read)
	got, err := r.cli.Read(testCtx, &snapCap, 1, snapID, 0, 11)
	if err != nil || string(got) != "snapshot me" {
		t.Fatalf("snapshot read = %q, %v", got, err)
	}

	listCap := r.mint(t, 1, 0, 0, capability.Read)
	ids, err := r.cli.List(testCtx, &listCap, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("list = %v", ids)
	}
}

func TestSetAttrUninterp(t *testing.T) {
	r := newRig(t, true)
	r.mkpart(t, 1, 0)
	createCap := r.mint(t, 1, 0, 0, capability.CreateObj)
	id, _ := r.cli.Create(testCtx, &createCap, 1)
	sa := r.mint(t, 1, id, 1, capability.SetAttr|capability.GetAttr)
	var attrs object.Attributes
	copy(attrs.Uninterp[:], []byte("uid=3 gid=4 mode=0644"))
	if err := r.cli.SetAttr(testCtx, &sa, 1, id, attrs, object.SetUninterp); err != nil {
		t.Fatal(err)
	}
	got, err := r.cli.GetAttr(testCtx, &sa, 1, id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got.Uninterp[:], []byte("uid=3")) {
		t.Fatal("uninterpreted attrs not persisted")
	}
}

func TestTamperedRequestRejected(t *testing.T) {
	r := newRig(t, true)
	r.mkpart(t, 1, 0)
	createCap := r.mint(t, 1, 0, 0, capability.CreateObj)
	id, _ := r.cli.Create(testCtx, &createCap, 1)
	w := r.mint(t, 1, id, 1, capability.Write)

	// Hand-build a request whose digest covers different data than it
	// carries (a man-in-the-middle swapped the payload).
	args := (&drive.WriteArgs{Partition: 1, Object: id, Offset: 0}).Encode()
	req := &rpc.Request{
		Proc:  uint16(drive.OpWriteObject),
		Args:  args,
		Data:  []byte("genuine"),
		Nonce: crypt.Nonce{Client: 555, Counter: 1},
	}
	req.Cap = w.Public.Encode()
	req.ReqDig = w.SignRequest(req.SigningBody())
	req.Data = []byte("swapped") // tamper after signing
	rep := r.drv.Handle(req)
	if rep.Status != rpc.StatusAuthFailure {
		t.Fatalf("tampered payload status = %v", rep.Status)
	}
}

func TestReplayRejected(t *testing.T) {
	r := newRig(t, true)
	r.mkpart(t, 1, 0)
	createCap := r.mint(t, 1, 0, 0, capability.CreateObj)
	id, _ := r.cli.Create(testCtx, &createCap, 1)
	rd := r.mint(t, 1, id, 1, capability.Read)

	args := (&drive.ReadArgs{Partition: 1, Object: id, Offset: 0, Length: 1}).Encode()
	req := &rpc.Request{
		Proc:  uint16(drive.OpReadObject),
		Args:  args,
		Nonce: crypt.Nonce{Client: 777, Counter: 42},
	}
	req.Cap = rd.Public.Encode()
	req.ReqDig = rd.SignRequest(req.SigningBody())
	if rep := r.drv.Handle(req); rep.Status != rpc.StatusOK {
		t.Fatalf("first use: %v %s", rep.Status, rep.Msg)
	}
	if rep := r.drv.Handle(req); rep.Status != rpc.StatusReplay {
		t.Fatalf("replay status = %v", rep.Status)
	}
}

func TestTCPTransportEndToEnd(t *testing.T) {
	master := crypt.NewRandomKey()
	dev := blockdev.NewMemDisk(4096, 4096)
	drv, err := drive.NewFormat(dev, drive.Config{ID: 9, Master: master, Secure: true})
	if err != nil {
		t.Fatal(err)
	}
	l, err := rpc.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := drv.Serve(l)
	defer srv.Close()

	conn, err := rpc.DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cli := New(conn, 9, 2002)
	defer cli.Close()

	fm := crypt.NewHierarchy(master)
	if err := cli.CreatePartition(testCtx, crypt.KeyID{Type: crypt.MasterKey}, master, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := fm.AddPartition(1); err != nil {
		t.Fatal(err)
	}
	kid, key, _ := fm.CurrentWorkingKey(1)
	mk := func(obj, ver uint64, rights capability.Rights) capability.Capability {
		return capability.Mint(capability.Public{
			DriveID: 9, Partition: 1, Object: obj, ObjVer: ver, Rights: rights,
			Expiry: time.Now().Add(time.Hour).UnixNano(), Key: kid,
		}, key)
	}
	cc := mk(0, 0, capability.CreateObj)
	id, err := cli.Create(testCtx, &cc, 1)
	if err != nil {
		t.Fatal(err)
	}
	rw := mk(id, 1, capability.Read|capability.Write)
	payload := bytes.Repeat([]byte{0xA5}, 1<<20)
	if err := cli.Write(testCtx, &rw, 1, id, 0, payload); err != nil {
		t.Fatal(err)
	}
	got, err := cli.Read(testCtx, &rw, 1, id, 0, len(payload))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("TCP round trip failed: %v", err)
	}
	if err := cli.Flush(testCtx); err != nil {
		t.Fatal(err)
	}

	// Reopen the device: data survives.
	srv.Close()
	drv2, err := drive.Open(dev, drive.Config{ID: 9, Master: master, Secure: false})
	if err != nil {
		t.Fatal(err)
	}
	data, err := drv2.Store().Read(1, id, 0, 16)
	if err != nil || !bytes.Equal(data, payload[:16]) {
		t.Fatalf("data lost across reopen: %v", err)
	}
}
