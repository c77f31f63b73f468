// Package hw provides 1998-era hardware models on the sim kernel:
// CPUs with instruction accounting, network links and switches, and
// mechanical disks with track caches, readahead, and write-behind.
//
// Every performance figure in the paper is a consequence of the balance
// between these parts — 5 MB/s SCSI buses, 155 Mb/s OC-3 ATM, 133 MHz
// drive CPUs, 233 MHz clients, and a heavyweight DCE RPC stack — so the
// experiment harnesses assemble systems from these models with the
// paper's parameters rather than measuring modern wall clocks.
package hw

import (
	"time"

	"nasd/internal/sim"
)

// MB is bytes per megabyte as drive vendors and the paper use it (10^6).
const MB = 1e6

// CPU models a processor with a clock rate and average CPI. Work is
// expressed in instructions; the CPU is a unit-capacity FCFS resource so
// concurrent demands queue.
type CPU struct {
	res *sim.Resource
	// MHz is the clock rate in megahertz.
	MHz float64
	// CPI is the average cycles per instruction (the paper measured 2.2
	// on its Alpha prototype).
	CPI float64
}

// NewCPU creates a CPU model.
func NewCPU(env *sim.Env, name string, mhz, cpi float64) *CPU {
	return &CPU{res: env.NewResource(name+".cpu", 1), MHz: mhz, CPI: cpi}
}

// InstrTime converts an instruction count to execution time.
func (c *CPU) InstrTime(instr float64) time.Duration {
	sec := instr * c.CPI / (c.MHz * 1e6)
	return time.Duration(sec * float64(time.Second))
}

// Exec runs instr instructions, queueing for the CPU.
func (c *CPU) Exec(p *sim.Proc, instr float64) {
	c.res.Use(p, c.InstrTime(instr))
}

// Utilization returns the CPU's mean utilization since time zero.
func (c *CPU) Utilization() float64 { return c.res.Utilization() }

// IdlePercent returns 100*(1-utilization), the quantity Figure 7 plots.
func (c *CPU) IdlePercent() float64 { return 100 * (1 - c.res.Utilization()) }

// Link models a network link (or bus) with fixed bandwidth and
// propagation latency. Bandwidth contention serializes transfers;
// latency is added outside the queue so back-to-back transfers pipeline.
type Link struct {
	res *sim.Resource
	// BytesPerSec is the usable bandwidth.
	BytesPerSec float64
	// Latency is the propagation delay per message.
	Latency time.Duration
}

// NewLink creates a link. bytesPerSec is usable bandwidth in bytes/s.
func NewLink(env *sim.Env, name string, bytesPerSec float64, latency time.Duration) *Link {
	return &Link{res: env.NewResource(name, 1), BytesPerSec: bytesPerSec, Latency: latency}
}

// TransferTime returns the serialization time for n bytes.
func (l *Link) TransferTime(n int) time.Duration {
	sec := float64(n) / l.BytesPerSec
	return time.Duration(sec * float64(time.Second))
}

// Transfer moves n bytes across the link: queue for the wire, hold it
// for the serialization time, then wait propagation latency.
func (l *Link) Transfer(p *sim.Proc, n int) {
	l.res.Use(p, l.TransferTime(n))
	if l.Latency > 0 {
		p.Wait(l.Latency)
	}
}

// Duplex pairs two independent directions of a full-duplex link.
type Duplex struct {
	// Up carries traffic from the host into the network.
	Up *Link
	// Down carries traffic from the network to the host.
	Down *Link
}

// NewDuplex creates a full-duplex link with symmetric bandwidth.
func NewDuplex(env *sim.Env, name string, bytesPerSec float64, latency time.Duration) *Duplex {
	return &Duplex{
		Up:   NewLink(env, name+".up", bytesPerSec, latency),
		Down: NewLink(env, name+".down", bytesPerSec, latency),
	}
}

// ProtocolCost models a host protocol stack's CPU demand: a fixed
// per-message cost plus per-byte costs that differ between send and
// receive (receive implies extra copies and checksums on 1998 hosts).
type ProtocolCost struct {
	PerMessage  float64 // instructions per message
	SendPerByte float64 // instructions per byte sent
	RecvPerByte float64 // instructions per byte received
}

// SendInstr returns the instruction cost to send n payload bytes.
func (pc ProtocolCost) SendInstr(n int) float64 {
	return pc.PerMessage + pc.SendPerByte*float64(n)
}

// RecvInstr returns the instruction cost to receive n payload bytes.
func (pc ProtocolCost) RecvInstr(n int) float64 {
	return pc.PerMessage + pc.RecvPerByte*float64(n)
}

// Host is a network endpoint: a CPU and a duplex NIC plus the protocol
// cost model its stack imposes.
type Host struct {
	CPU   *CPU
	NIC   *Duplex
	Proto ProtocolCost
}

// NewHost assembles a host.
func NewHost(env *sim.Env, name string, cpu *CPU, nic *Duplex, proto ProtocolCost) *Host {
	return &Host{CPU: cpu, NIC: nic, Proto: proto}
}

// SendMessage models the full cost of pushing one message of n bytes
// from src to dst across a switched fabric: protocol send CPU at the
// source, wire time on the source's uplink and the destination's
// downlink (a non-blocking switch in between), and protocol receive CPU
// at the destination.
func SendMessage(p *sim.Proc, src, dst *Host, n int) {
	src.CPU.Exec(p, src.Proto.SendInstr(n))
	src.NIC.Up.Transfer(p, n)
	dst.NIC.Down.Transfer(p, n)
	dst.CPU.Exec(p, dst.Proto.RecvInstr(n))
}
