//go:build !poison

package paramserver

import "handsfree/internal/nn"

// poison is set by the poison build tag: released buffers are overwritten
// with NaN, and Packed on a released snapshot panics.
const poison = false

func poisonBuffers(*nn.Network, *nn.PackedNetwork) {}
