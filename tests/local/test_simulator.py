"""Tests for the message-passing simulator and ports (repro.local.simulator,
repro.local.ports)."""

from __future__ import annotations

import pytest

from repro.graphs.families import path_network
from repro.local.algorithm import LocalAlgorithm
from repro.local.ports import assign_ports
from repro.local.randomness import TapeFactory
from repro.local.simulator import Simulator


class GatherNeighborIds(LocalAlgorithm):
    """One round: broadcast own identity, output the sorted neighbour ids."""

    name = "gather-neighbor-ids"

    def initial_state(self, ctx):
        return []

    def send(self, state, ctx, rnd):
        return ctx.identity

    def receive(self, state, ctx, rnd, inbox):
        return sorted(inbox.values())

    def output(self, state, ctx):
        return tuple(state)


class CountRoundsUntilDone(LocalAlgorithm):
    """Each node finishes after a number of rounds equal to its identity."""

    name = "count-rounds"

    def initial_state(self, ctx):
        return 0

    def send(self, state, ctx, rnd):
        return None

    def receive(self, state, ctx, rnd, inbox):
        return state + 1

    def finished(self, state, ctx, rnd):
        return state >= ctx.identity

    def output(self, state, ctx):
        return state


class PortEcho(LocalAlgorithm):
    """Round 1: send a distinct message per port; output what came back."""

    name = "port-echo"

    def initial_state(self, ctx):
        return {}

    def send(self, state, ctx, rnd):
        return {port: (ctx.identity, port) for port in range(ctx.degree)}

    def receive(self, state, ctx, rnd, inbox):
        return dict(inbox)

    def output(self, state, ctx):
        return state


class RandomBitOnce(LocalAlgorithm):
    """Output one private random bit (exercises the tape plumbing)."""

    name = "random-bit"

    def initial_state(self, ctx):
        return ctx.tape.bit()

    def send(self, state, ctx, rnd):
        return None

    def receive(self, state, ctx, rnd, inbox):
        return state

    def output(self, state, ctx):
        return state


class TestPorts:
    def test_by_identity_ports_are_contiguous(self, small_star):
        ports = assign_ports(small_star)
        center = small_star.nodes()[0]
        assert ports.ports(center) == list(range(small_star.degree(center)))

    def test_port_inverse_maps(self, small_cycle):
        ports = assign_ports(small_cycle)
        for node in small_cycle.nodes():
            for neighbor in small_cycle.neighbors(node):
                port = ports.port(node, neighbor)
                assert ports.neighbor(node, port) == neighbor

    def test_random_scheme_is_permutation(self, small_star):
        ports = assign_ports(small_star, scheme="random", seed=1)
        center = small_star.nodes()[0]
        assert sorted(ports.ports(center)) == list(range(small_star.degree(center)))

    def test_unknown_scheme_rejected(self, small_cycle):
        with pytest.raises(ValueError):
            assign_ports(small_cycle, scheme="bogus")

    def test_degree_matches_network(self, small_grid):
        ports = assign_ports(small_grid)
        for node in small_grid.nodes():
            assert ports.degree(node) == small_grid.degree(node)


class TestSimulator:
    def test_broadcast_reaches_all_neighbors(self, small_cycle):
        result = Simulator(small_cycle).run(GatherNeighborIds(), rounds=1)
        for node in small_cycle.nodes():
            expected = tuple(
                sorted(small_cycle.identity(u) for u in small_cycle.neighbors(node))
            )
            assert result.outputs[node] == expected

    def test_message_count_is_twice_edges_for_broadcast(self, small_cycle):
        result = Simulator(small_cycle).run(GatherNeighborIds(), rounds=1)
        assert result.messages_sent == 2 * small_cycle.number_of_edges()

    def test_fixed_round_budget_respected(self, small_path):
        result = Simulator(small_path).run(GatherNeighborIds(), rounds=3)
        assert result.rounds == 3

    def test_adaptive_termination(self):
        net = path_network(4, ids="consecutive")
        result = Simulator(net).run(CountRoundsUntilDone())
        # The slowest node has identity 4, so the run takes exactly 4 rounds.
        assert result.rounds == 4
        assert result.outputs == {node: max(4, net.identity(node)) for node in net.nodes()}

    def test_max_rounds_exceeded_raises(self, small_path):
        class Never(CountRoundsUntilDone):
            def finished(self, state, ctx, rnd):
                return False

        with pytest.raises(RuntimeError):
            Simulator(small_path).run(Never(), max_rounds=5)

    def test_per_port_messages_delivered_on_correct_ports(self, small_star):
        result = Simulator(small_star).run(PortEcho(), rounds=1)
        ports = assign_ports(small_star)
        for node in small_star.nodes():
            for arrival_port, (sender_identity, sender_port) in result.outputs[node].items():
                sender = small_star.node_with_identity(sender_identity)
                assert ports.neighbor(node, arrival_port) == sender
                assert ports.port(sender, node) == sender_port

    def test_trace_recorded_when_requested(self, small_cycle):
        result = Simulator(small_cycle).run(GatherNeighborIds(), rounds=2, record_trace=True)
        assert len(result.trace) == 2
        assert set(result.trace[0]) == set(small_cycle.nodes())

    def test_trace_not_recorded_by_default(self, small_cycle):
        result = Simulator(small_cycle).run(GatherNeighborIds(), rounds=1)
        assert result.trace is None

    def test_randomness_reproducible_per_factory_seed(self, small_cycle):
        a = Simulator(small_cycle, tape_factory=TapeFactory(5)).run(RandomBitOnce(), rounds=1)
        b = Simulator(small_cycle, tape_factory=TapeFactory(5)).run(RandomBitOnce(), rounds=1)
        c = Simulator(small_cycle, tape_factory=TapeFactory(6)).run(RandomBitOnce(), rounds=1)
        assert a.outputs == b.outputs
        assert a.outputs != c.outputs

    def test_expose_n_flag(self, small_cycle):
        class ReportN(RandomBitOnce):
            def output(self, state, ctx):
                return ctx.n_nodes

        hidden = Simulator(small_cycle).run(ReportN(), rounds=1)
        exposed = Simulator(small_cycle, expose_n=True).run(ReportN(), rounds=1)
        assert set(hidden.outputs.values()) == {None}
        assert set(exposed.outputs.values()) == {small_cycle.number_of_nodes()}


class ScriptedSend(LocalAlgorithm):
    """Round 1: every node sends whatever ``payload_of(ctx)`` says; the nodes
    output their (port -> message) inbox so the tests can inspect delivery."""

    name = "scripted-send"

    def __init__(self, payload_of):
        self.payload_of = payload_of

    def initial_state(self, ctx):
        return {}

    def send(self, state, ctx, rnd):
        return self.payload_of(ctx)

    def receive(self, state, ctx, rnd, inbox):
        return dict(inbox)

    def output(self, state, ctx):
        return state


class TestSendPayloadSemantics:
    """The three payload shapes of ``LocalAlgorithm.send``: broadcast value,
    per-port dict (empty = silence), and ``None`` (silence)."""

    def test_empty_dict_sends_nothing(self, small_cycle):
        """Regression: an empty per-port dict used to be broadcast as the
        message ``{}`` to every neighbour."""
        result = Simulator(small_cycle).run(ScriptedSend(lambda ctx: {}), rounds=1)
        assert result.messages_sent == 0
        assert all(inbox == {} for inbox in result.outputs.values())

    def test_none_sends_nothing(self, small_cycle):
        result = Simulator(small_cycle).run(ScriptedSend(lambda ctx: None), rounds=1)
        assert result.messages_sent == 0
        assert all(inbox == {} for inbox in result.outputs.values())

    def test_mixed_per_port_and_broadcast_payloads(self, small_cycle):
        """One node speaks on a single port, one broadcasts, the rest stay
        silent; only those messages are delivered."""
        identities = sorted(small_cycle.ids.values())
        talker, broadcaster = identities[0], identities[1]

        def payload(ctx):
            if ctx.identity == talker:
                return {0: "to-port-0"}
            if ctx.identity == broadcaster:
                return "hello-everyone"
            return {}

        result = Simulator(small_cycle).run(ScriptedSend(payload), rounds=1)
        degree = small_cycle.degree(small_cycle.node_with_identity(broadcaster))
        assert result.messages_sent == 1 + degree
        received = [message for inbox in result.outputs.values() for message in inbox.values()]
        assert received.count("to-port-0") == 1
        assert received.count("hello-everyone") == degree

    def test_dict_with_non_port_keys_is_broadcast_as_value(self, small_cycle):
        """A dict whose keys are not the sender's ports is data, not routing:
        it is broadcast verbatim."""
        payload_value = {99: "not-a-port"}
        result = Simulator(small_cycle).run(ScriptedSend(lambda ctx: payload_value), rounds=1)
        assert result.messages_sent == 2 * small_cycle.number_of_edges()
        assert all(
            message == payload_value
            for inbox in result.outputs.values()
            for message in inbox.values()
        )
