"""Synchronous round-based execution engine for the LOCAL model.

The :class:`Simulator` runs a :class:`~repro.local.algorithm.LocalAlgorithm`
on a :class:`~repro.local.network.Network`: in every round all nodes send
messages, all messages are delivered, and all nodes update their state — the
three steps of Section 2.1.1.  The engine also records message counts and an
optional per-round trace, which the benchmark harness uses to report round
complexities of the baseline algorithms.

:func:`run_ball_algorithm` is the fast path for constant-radius ball
algorithms (deciders and constructors in :mod:`repro.core`): it extracts each
node's ball directly from the network instead of flooding, which is
behaviourally identical (tests assert this) and much faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Optional

from repro.local.algorithm import BallAlgorithm, LocalAlgorithm, NodeContext
from repro.local.ball import collect_ball
from repro.local.network import Network
from repro.local.ports import PortNumbering, assign_ports
from repro.local.randomness import TapeFactory

__all__ = ["Simulator", "RunResult", "run_ball_algorithm"]


@dataclass
class RunResult:
    """Outcome of one simulated execution.

    Attributes
    ----------
    outputs:
        Mapping node -> output produced by the algorithm.
    rounds:
        Number of communication rounds actually executed.
    messages_sent:
        Total number of (node, port) messages delivered over the execution.
    trace:
        When tracing is enabled, a list with one entry per round mapping each
        node to the message it broadcast (or the port-indexed dict it sent).
    """

    outputs: Dict[Hashable, object]
    rounds: int
    messages_sent: int
    trace: Optional[list] = None


class Simulator:
    """Synchronous executor for message-passing LOCAL algorithms.

    Parameters
    ----------
    network:
        The network to execute on.
    ports:
        Port numbering; defaults to the deterministic by-identity numbering.
    tape_factory:
        Source of per-node private randomness; defaults to a factory with
        master seed 0.  Deterministic algorithms simply never read the tape.
    expose_n:
        If True, every node is told the number of nodes ``n`` (the
        BPLD#node setting discussed in Section 5).  Off by default, as in the
        standard LOCAL model of the paper.
    """

    def __init__(
        self,
        network: Network,
        ports: Optional[PortNumbering] = None,
        tape_factory: Optional[TapeFactory] = None,
        expose_n: bool = False,
    ) -> None:
        self.network = network
        self.ports = ports if ports is not None else assign_ports(network)
        self.tape_factory = tape_factory if tape_factory is not None else TapeFactory(0)
        self.expose_n = expose_n

    # ------------------------------------------------------------------ #
    def _contexts(self) -> Dict[Hashable, NodeContext]:
        n = self.network.number_of_nodes()
        return {
            node: NodeContext(
                identity=self.network.identity(node),
                input=self.network.input_of(node),
                degree=self.network.degree(node),
                tape=self.tape_factory.tape_for(self.network.identity(node)),
                n_nodes=n if self.expose_n else None,
            )
            for node in self.network.nodes()
        }

    def run(
        self,
        algorithm: LocalAlgorithm,
        rounds: Optional[int] = None,
        max_rounds: int = 10_000,
        record_trace: bool = False,
    ) -> RunResult:
        """Execute ``algorithm`` on the network.

        Parameters
        ----------
        algorithm:
            The message-passing algorithm.
        rounds:
            If given, run exactly this many rounds, ignoring
            ``algorithm.finished``.  Otherwise run until every node reports
            being finished, or ``max_rounds`` is hit (then ``RuntimeError``).
        max_rounds:
            Safety bound for open-ended executions.
        record_trace:
            Store the messages sent in every round in the result.
        """
        contexts = self._contexts()
        states = {
            node: algorithm.initial_state(contexts[node]) for node in self.network.nodes()
        }
        trace: Optional[list] = [] if record_trace else None
        messages_sent = 0

        budget = rounds if rounds is not None else max_rounds
        executed = 0
        for rnd in range(1, budget + 1):
            if rounds is None and all(
                algorithm.finished(states[node], contexts[node], executed)
                for node in self.network.nodes()
            ):
                break
            outboxes: Dict[Hashable, object] = {}
            for node in self.network.nodes():
                outboxes[node] = algorithm.send(states[node], contexts[node], rnd)
            if record_trace:
                trace.append({node: outboxes[node] for node in self.network.nodes()})

            inboxes: Dict[Hashable, Dict[int, object]] = {
                node: {} for node in self.network.nodes()
            }
            for node in self.network.nodes():
                payload = outboxes[node]
                if payload is None:
                    continue
                if isinstance(payload, dict) and all(
                    isinstance(key, int) for key in payload
                ) and set(payload).issubset(set(self.ports.ports(node))):
                    # Per-port messages; an empty dict means "send nothing"
                    # this round, NOT a broadcast of {}.
                    for port, message in payload.items():
                        neighbor = self.ports.neighbor(node, port)
                        back_port = self.ports.port(neighbor, node)
                        inboxes[neighbor][back_port] = message
                        messages_sent += 1
                else:
                    # Broadcast to all neighbours.
                    for neighbor in self.network.neighbors(node):
                        back_port = self.ports.port(neighbor, node)
                        inboxes[neighbor][back_port] = payload
                        messages_sent += 1

            for node in self.network.nodes():
                states[node] = algorithm.receive(
                    states[node], contexts[node], rnd, inboxes[node]
                )
            executed = rnd

        if rounds is None and executed >= max_rounds and not all(
            algorithm.finished(states[node], contexts[node], executed)
            for node in self.network.nodes()
        ):
            raise RuntimeError(
                f"algorithm {algorithm.name!r} did not finish within {max_rounds} rounds"
            )

        outputs = {
            node: algorithm.output(states[node], contexts[node])
            for node in self.network.nodes()
        }
        return RunResult(
            outputs=outputs, rounds=executed, messages_sent=messages_sent, trace=trace
        )


def run_ball_algorithm(
    network: Network,
    algorithm: BallAlgorithm,
    tape_factory: Optional[TapeFactory] = None,
    outputs: Optional[Mapping[Hashable, object]] = None,
) -> Dict[Hashable, object]:
    """Evaluate a ball algorithm at every node of the network (fast path).

    Extracts ``B_G(v, radius)`` for every node ``v`` directly from the
    network and applies the algorithm to it.  For decision tasks, pass the
    candidate ``outputs`` so they are embedded in the balls.

    Returns the mapping node -> output of the algorithm at that node.
    """
    factory = tape_factory if tape_factory is not None else TapeFactory(0)
    results: Dict[Hashable, object] = {}
    for node in network.nodes():
        ball = collect_ball(network, node, algorithm.radius, outputs=outputs)
        tape = factory.tape_for(network.identity(node)) if algorithm.randomized else None
        results[node] = algorithm.compute(ball, tape)
    return results
