// Package rl provides the reinforcement-learning machinery used by the
// hands-free optimizer agents: an episodic environment abstraction, a
// REINFORCE policy-gradient agent with baseline and entropy regularization,
// a Q-style value agent for learning from demonstration, replay buffers,
// and running reward normalization.
//
// The design mirrors Section 2 of the paper: an agent repeatedly observes a
// state and a set of valid actions, picks one, and receives a reward; query
// optimization episodes end at a terminal state (a complete plan) where the
// only nonzero reward arrives.
//
// # Batched training and parallel collection
//
// The hot paths are batch-first. QAgent.Train/TrainMargin assemble each
// minibatch into one k×d matrix and run a single batched forward/backward
// with a masked per-row gradient; Reinforce stacks every step of an update
// batch the same way. Both are numerically identical to their per-sample
// equivalents (asserted by the parity tests) while doing one network pass
// per minibatch instead of one per sample; nn runs each matrix kernel on
// its caller's goroutine. QAgent.PredictBatch and Reinforce.ProbsBatch
// expose batched inference.
//
// Episode collection parallelizes with TrainAsyncCtx, the actor-learner split:
// actors collect against parameter-server snapshots
// (staleness bounded by K versions) while the learner updates and
// republishes. Which snapshot an episode sees is decided by its ticket, not
// by the clock, and the learner consumes in ticket order, so the result is
// that of a sequential loop (async.go states it) on every run: the overlap
// buys wall-clock time and costs no reproducibility.
package rl

// State is one observation from an environment: a feature vector plus the
// validity mask over the (fixed-size) action space.
type State struct {
	Features []float64
	Mask     []bool
	Terminal bool
}

// NumValid returns how many actions are currently valid.
func (s State) NumValid() int {
	n := 0
	for _, ok := range s.Mask {
		if ok {
			n++
		}
	}
	return n
}

// Env is an episodic environment with a fixed-size discrete action space.
// Invalid actions are communicated through State.Mask.
type Env interface {
	// Reset starts a new episode and returns the initial state.
	Reset() State
	// Step performs an action, returning the next state, the reward earned
	// by the action, and whether the episode has ended.
	Step(action int) (next State, reward float64, done bool)
	// ObsDim is the length of State.Features.
	ObsDim() int
	// ActionDim is the size of the action space (and of State.Mask).
	ActionDim() int
}

// Step is one (state, action, reward) transition recorded during an episode.
type Step struct {
	Features []float64
	Mask     []bool
	Action   int
	Reward   float64
}

// Trajectory is the history of one episode.
type Trajectory struct {
	Steps []Step
	// Return is the undiscounted sum of rewards over the episode.
	Return float64
}

// RunEpisode drives env with the given action-selection policy until the
// episode terminates, recording the trajectory. maxSteps guards against
// non-terminating environments.
func RunEpisode(env Env, choose func(State) int, maxSteps int) Trajectory {
	var traj Trajectory
	s := env.Reset()
	for i := 0; i < maxSteps && !s.Terminal; i++ {
		a := choose(s)
		next, r, done := env.Step(a)
		traj.Steps = append(traj.Steps, Step{Features: s.Features, Mask: s.Mask, Action: a, Reward: r})
		traj.Return += r
		s = next
		if done {
			break
		}
	}
	return traj
}
