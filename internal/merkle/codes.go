package merkle

import "nymix/internal/nymerr"

// Registered error codes for the integrity layer.
var (
	// CodeTampered: content does not match the well-known root.
	CodeTampered = nymerr.Register("merkle.tampered",
		"content does not match the well-known Merkle root")
	// CodeLeafRange: a membership proof was asked for a leaf the tree
	// does not have.
	CodeLeafRange = nymerr.Register("merkle.leaf_range",
		"membership proof requested for a leaf index outside the tree")
)

// ErrTampered is returned when content fails verification. It stays
// the errors.Is target for every tamper report, here and in the vault.
var ErrTampered = nymerr.New(CodeTampered, "merkle: content does not match the well-known root")
