// Package drive implements a NASD drive: the object system plus
// capability enforcement plus the RPC interface of Section 4.1 — fewer
// than 20 requests covering object data and attributes, object and
// partition lifecycle, copy-on-write versioning, and key management.
// The package also carries the drive-side instruction-accounting model
// calibrated against Table 1 of the paper.
//
// Alongside that modelled cost breakdown the drive measures the real
// one: every request's service time is split into the same three
// components as Table 1 — digest (capability/MAC work, timed inside
// authorize), media (the instrumented block device's busy-time delta),
// and object system (the remainder) — and published into a
// telemetry.Registry as the drive.op.<op>.* family, next to cache
// hit/miss counters. Every request also gets a drive.<op> handler span
// in the drive's span log, keyed by the client's request ID (or a
// local one), and those spans are the drive's request log. The stats
// op returns the snapshot and the spans over the NASD interface
// itself; see DESIGN.md §5.
package drive
