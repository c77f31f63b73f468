package hw

import (
	"time"

	"nasd/internal/sim"
)

// Network presets (usable bandwidth after protocol overheads).
const (
	// OC3ATMBytesPerSec is a 155 Mb/s OC-3 ATM link's usable payload
	// bandwidth (~135 Mb/s after cell tax).
	OC3ATMBytesPerSec = 135e6 / 8
	// Ethernet10BytesPerSec is classic 10 Mb/s Ethernet.
	Ethernet10BytesPerSec = 10e6 / 8
	// LANLatency is a one-way switched-LAN latency for 1998 gear.
	LANLatency = 100 * time.Microsecond
)

// DCERPCCost models the prototype's DCE RPC 1.0.3 over UDP/IP stack.
// The per-message and send-per-byte terms come from the Table 1 fit;
// the receive-per-byte term is calibrated so a 233 MHz AlphaStation 255
// saturates near the ~80 Mb/s the paper measured ("DCE RPC cannot push
// more than 80 Mb/s through a 155 Mb/s ATM link before the receiving
// client saturates").
var DCERPCCost = ProtocolCost{
	PerMessage:  33500,
	SendPerByte: 2.55,
	RecvPerByte: 9.5,
}

// LeanRPCCost models the lighter protocol a commodity NASD would ship
// ("commodity NASD drives must have a less costly RPC mechanism") —
// used by ablation experiments.
var LeanRPCCost = ProtocolCost{
	PerMessage:  5000,
	SendPerByte: 0.4,
	RecvPerByte: 0.8,
}

// NewAlphaStation255 builds a client host: 233 MHz AlphaStation 255 on
// OC-3 ATM running DCE RPC (the Figure 7/9 client).
func NewAlphaStation255(env *sim.Env, name string) *Host {
	cpu := NewCPU(env, name, 233, 2.2)
	nic := NewDuplex(env, name+".atm", OC3ATMBytesPerSec, LANLatency)
	return NewHost(env, name, cpu, nic, DCERPCCost)
}

// NewNASDDrivePrototype builds the paper's prototype "drive": a 133 MHz
// Alpha 3000/400 front-end on OC-3 ATM with two Medallists behind a
// software stripe (32 KB units on two 5 MB/s SCSI buses).
func NewNASDDrivePrototype(env *sim.Env, name string) (*Host, *StripeDisk) {
	cpu := NewCPU(env, name, 133, 2.2)
	nic := NewDuplex(env, name+".atm", OC3ATMBytesPerSec, LANLatency)
	host := NewHost(env, name, cpu, nic, DCERPCCost)
	d1 := NewDisk(env, MedallistST52160)
	d2 := NewDisk(env, MedallistST52160)
	return host, NewStripeDisk([]*Disk{d1, d2}, 32<<10)
}

// NewNFSServer500 builds the Figure 9 comparison server: an
// AlphaStation 500/500 (500 MHz) with two OC-3 ATM links and eight
// Cheetahs on two 40 MB/s Wide UltraSCSI buses.
type NFSServerHW struct {
	CPU   *CPU
	NICs  []*Duplex
	Disks []*Disk
	Buses []*Link
	Proto ProtocolCost
}

// NewNFSServer500 assembles the server hardware.
func NewNFSServer500(env *sim.Env, name string, nDisks int) *NFSServerHW {
	s := &NFSServerHW{
		CPU:   NewCPU(env, name, 500, 2.2),
		Proto: DCERPCCost,
	}
	for i := 0; i < 2; i++ {
		s.NICs = append(s.NICs, NewDuplex(env, name+".atm", OC3ATMBytesPerSec, LANLatency))
	}
	for i := 0; i < 2; i++ {
		s.Buses = append(s.Buses, NewLink(env, name+".scsi", 40*MB, 0))
	}
	for i := 0; i < nDisks; i++ {
		s.Disks = append(s.Disks, NewDisk(env, CheetahST34501W))
	}
	return s
}

// DiskRead performs a server disk read through the appropriate SCSI bus.
func (s *NFSServerHW) DiskRead(p *sim.Proc, disk int, off int64, n int) {
	d := s.Disks[disk]
	d.Read(p, off, n)
	bus := s.Buses[disk%len(s.Buses)]
	bus.Transfer(p, n)
}
