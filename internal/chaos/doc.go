// Package chaos is the seeded fault-injection layer over the serving
// stack: it composes Markov-modulated device dropout/restart, thermal-
// throttle storms (driven through the internal/thermal ambient model
// onto the executor's throttle factor), and edge–server link
// degradation (inflated round trips, arrival loss), silent-data-
// corruption episodes (SetSDC — corruption probability per completion,
// detection modelled at the compute tier's ABFT coverage), and
// straggler episodes (SetStraggle — a service-time slowdown factor
// that hedging policies race against) onto a serve.Server.
//
// The injector is a serve.Disruption: its fault-process transitions
// are scheduled as events in the server's own event queue, so a
// whole chaos run shares one deterministic clock — same seed, same
// faults, same fingerprint — and the steady-state serve loop keeps its
// 0 allocs/op. Each process draws holding times from its own labelled
// rng split, so regimes compose without perturbing each other's
// schedules, and the zero-fault config schedules nothing at all: it is
// pinned (by golden fingerprints) to replay the fault-free study bit
// for bit.
//
// Recovery is managed, not assumed: the server's admission control
// sheds arrivals that cannot survive a known outage, the adaptive-
// precision controller (serve.AdaptConfig) downshifts to int8 under
// fault-induced latency pressure and upshifts back once healthy, and
// every fault episode's recovery time — fault clear until the backlog
// returns to its pre-fault depth — is measured into the study's
// recovery-time columns.
package chaos
