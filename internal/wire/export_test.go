package wire

// Test hooks: the transfer frame codec is internal to the transfer
// stream, but the equivalence and fuzz tests drive it frame by frame.
var (
	WriteTransferFrame = writeTransferFrame
	ReadTransferFrame  = readTransferFrame
)
