"""Tests for the event bus and typed signals."""

from repro.util.events import PUBLISH_LOG_SIZE, EventBus, TypedSignal


class TestEventBus:
    def test_exact_topic_delivery(self, bus):
        received = []
        bus.subscribe("gps.fix", lambda topic, payload: received.append(payload))
        assert bus.publish("gps.fix", 42) == 1
        assert received == [42]

    def test_non_matching_topic_not_delivered(self, bus):
        received = []
        bus.subscribe("gps.fix", lambda t, p: received.append(p))
        assert bus.publish("radio.sms", 1) == 0
        assert received == []

    def test_glob_pattern(self, bus):
        received = []
        bus.subscribe("radio.*", lambda t, p: received.append(t))
        bus.publish("radio.sms", None)
        bus.publish("radio.call", None)
        bus.publish("gps.fix", None)
        assert received == ["radio.sms", "radio.call"]

    def test_delivery_in_subscription_order(self, bus):
        order = []
        bus.subscribe("t", lambda t, p: order.append("first"))
        bus.subscribe("t", lambda t, p: order.append("second"))
        bus.publish("t")
        assert order == ["first", "second"]

    def test_unsubscribe(self, bus):
        received = []
        sub = bus.subscribe("t", lambda t, p: received.append(p))
        bus.publish("t", 1)
        sub.unsubscribe()
        bus.publish("t", 2)
        assert received == [1]

    def test_unsubscribe_idempotent(self, bus):
        sub = bus.subscribe("t", lambda t, p: None)
        sub.unsubscribe()
        sub.unsubscribe()  # no error
        assert bus.subscriber_count("t") == 0

    def test_subscriber_count(self, bus):
        bus.subscribe("a.*", lambda t, p: None)
        bus.subscribe("a.b", lambda t, p: None)
        assert bus.subscriber_count("a.b") == 2
        assert bus.subscriber_count("c") == 0

    def test_subscribe_during_delivery_not_called_this_publish(self, bus):
        received = []

        def handler(topic, payload):
            received.append("outer")
            bus.subscribe("t", lambda t, p: received.append("inner"))

        bus.subscribe("t", handler)
        bus.publish("t")
        assert received == ["outer"]
        bus.publish("t")
        assert received.count("inner") == 1

    def test_published_topics_log(self, bus):
        bus.publish("a")
        bus.publish("b")
        assert bus.published_topics == ["a", "b"]
        bus.clear_log()
        assert bus.published_topics == []


    def test_published_topics_keeps_only_recent(self, bus):
        for index in range(PUBLISH_LOG_SIZE + 5):
            bus.publish(f"t{index}")
        topics = bus.published_topics
        assert len(topics) == PUBLISH_LOG_SIZE
        assert topics[0] == "t5"
        assert topics[-1] == f"t{PUBLISH_LOG_SIZE + 4}"

    def test_mixed_exact_and_glob_deliver_in_subscription_order(self, bus):
        order = []
        for name, pattern in (
            ("glob", "gps.*"), ("exact", "gps.fix"), ("other", "radio.*"),
            ("star", "*"), ("single", "gps.fi?"), ("exact2", "gps.fix"),
        ):
            bus.subscribe(pattern, lambda t, p, name=name: order.append(name))
        assert bus.publish("gps.fix") == 5
        assert order == ["glob", "exact", "star", "single", "exact2"]
        order.clear()
        bus.publish("gps.fix")  # second publish takes the cached route
        assert order == ["glob", "exact", "star", "single", "exact2"]

    def test_subscribe_during_delivery_with_warm_route(self, bus):
        received = []

        def handler(topic, payload):
            received.append(("outer", payload))
            if payload == 2:
                bus.subscribe("t*", lambda t, p: received.append(("inner", p)))

        bus.subscribe("t", handler)
        bus.publish("t", 1)  # warms the route for "t"
        bus.publish("t", 2)
        assert received == [("outer", 1), ("outer", 2)]
        bus.publish("t", 3)
        assert received[2:] == [("outer", 3), ("inner", 3)]

    def test_unsubscribe_later_handler_during_delivery(self, bus):
        received = []
        subs = {}

        def first(topic, payload):
            received.append(("first", payload))
            subs["second"].unsubscribe()

        bus.subscribe("t", first)
        subs["second"] = bus.subscribe("t", lambda t, p: received.append(("second", p)))
        bus.subscribe("t*", lambda t, p: received.append(("third", p)))
        assert bus.publish("t", 1) == 2
        assert received == [("first", 1), ("third", 1)]

    def test_route_cache_invalidated_by_subscribe_and_unsubscribe(self, bus):
        received = []
        assert bus.publish("gps.fix", 0) == 0  # caches an empty route
        sub = bus.subscribe("gps.*", lambda t, p: received.append(p))
        assert bus.subscriber_count("gps.fix") == 1
        assert bus.publish("gps.fix", 1) == 1
        sub.unsubscribe()
        assert bus.subscriber_count("gps.fix") == 0
        assert bus.publish("gps.fix", 2) == 0
        bus.subscribe("gps.fix", lambda t, p: received.append(-p))
        assert bus.publish("gps.fix", 3) == 1
        assert received == [1, -3]


class TestTypedSignal:
    def test_emit_calls_handlers(self):
        signal = TypedSignal("test")
        values = []
        signal.connect(values.append)
        assert signal.emit(7) == 1
        assert values == [7]

    def test_disconnect(self):
        signal = TypedSignal()
        values = []
        disconnect = signal.connect(values.append)
        disconnect()
        signal.emit(1)
        assert values == []

    def test_len_counts_handlers(self):
        signal = TypedSignal()
        signal.connect(lambda: None)
        signal.connect(lambda: None)
        assert len(signal) == 2

    def test_kwargs_pass_through(self):
        signal = TypedSignal()
        seen = {}
        signal.connect(lambda **kw: seen.update(kw))
        signal.emit(level=0.5)
        assert seen == {"level": 0.5}
