// Package adaptive implements the paper's stated future work:
// "accuracy-aware adaptive deployment strategies for seamless execution
// across edge-cloud environments" (§5).
//
// A Controller chooses among deployment arms — (model size, device,
// network path) triples — using a hysteresis policy driven by two
// streaming signals: the deadline-miss rate (latency pressure → shift to
// a smaller model or a faster device) and the detection-failure rate
// (accuracy pressure → shift to a larger model, possibly off-edge). The
// package also ships the one scenario that stresses the controller: a
// fixed 600-frame schedule with a dusk interval and a cloud outage,
// whose only input is its seed. RunAdaptive runs the controller over
// it, RunStatic one fixed arm (the controller over a spectrum of one),
// and the bench's adaptive study compares both over DefaultArms.
package adaptive
