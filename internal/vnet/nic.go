package vnet

// NIC is one end of a link: the attachment point of a node. Every NIC
// reads always-on byte counters — the simulation's ground truth for
// what actually crossed the wire at this attachment — and can be
// decorated with WireTaps for interval accounting.
type NIC struct {
	node *Node
	link *Link
	taps []*WireTap
}

// Node returns the NIC's node.
func (i *NIC) Node() *Node { return i.node }

// Link returns the NIC's link.
func (i *NIC) Link() *Link { return i.link }

// Peer returns the NIC at the other end of the link.
func (i *NIC) Peer() *NIC {
	if i.link.a == i {
		return i.link.b
	}
	return i.link.a
}

// txDir returns the link direction this NIC transmits in.
func (i *NIC) txDir() int {
	if i.link.a == i {
		return dirAB
	}
	return dirBA
}

// TxBytes returns the wire bytes transmitted through this NIC since
// creation, credited as flows progress (not at completion). A NIC
// belongs to one link, so this is the link's counter in the NIC's
// transmit direction.
func (i *NIC) TxBytes() int64 { return round64(i.link.wire[i.txDir()]) }

// RxBytes returns the wire bytes received through this NIC since
// creation: the link's counter in the other direction.
func (i *NIC) RxBytes() int64 { return round64(i.link.wire[1-i.txDir()]) }

// WireTap attaches a byte tap to the NIC. The tap starts at zero and
// accumulates from the moment of attachment, independent of the NIC's
// lifetime counters and of any other tap.
func (i *NIC) WireTap() *WireTap {
	w := &WireTap{nic: i}
	i.taps = append(i.taps, w)
	return w
}

// WireTap is a byte-tap decorator on a NIC: ground-truth wire
// accounting over the interval since it was attached. Fluid flows
// credit their taps continuously (at every rate change and at
// completion), so a tap read mid-experiment reflects bytes actually
// moved, not bytes promised.
type WireTap struct {
	nic    *NIC
	tx, rx float64
}

// NIC returns the tapped attachment point.
func (w *WireTap) NIC() *NIC { return w.nic }

// TxBytes returns bytes transmitted through the NIC since the tap was
// attached.
func (w *WireTap) TxBytes() int64 { return round64(w.tx) }

// RxBytes returns bytes received through the NIC since the tap was
// attached.
func (w *WireTap) RxBytes() int64 { return round64(w.rx) }

// Bytes returns the tap's total in both directions.
func (w *WireTap) Bytes() int64 { return round64(w.tx + w.rx) }

// round64 converts an accumulated fluid byte count to the nearest
// integer; fluid settlement leaves sub-byte float dust.
func round64(v float64) int64 { return int64(v + 0.5) }
