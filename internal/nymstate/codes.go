package nymstate

import "nymix/internal/nymerr"

// Registered error codes for the archive layer. The vault wraps these
// sentinels under its own codes, so Classify reports the vault code
// there; a monolithic archive load surfaces them directly.
var (
	// CodeBadPassword: the archive failed authentication under the
	// given password and nym name.
	CodeBadPassword = nymerr.Register("nymstate.bad_password",
		"archive failed authentication: wrong password, wrong nym name or corrupted ciphertext")
	// CodeBadArchive: the archive is malformed or its authenticated
	// payload does not decode.
	CodeBadArchive = nymerr.Register("nymstate.bad_archive",
		"archive is malformed or its payload does not decode")
)

// Errors: typed sentinels, kept as errors.Is targets for existing
// callers.
var (
	ErrBadPassword = nymerr.New(CodeBadPassword, "nymstate: wrong password or corrupted archive")
	ErrBadArchive  = nymerr.New(CodeBadArchive, "nymstate: malformed archive")
)
