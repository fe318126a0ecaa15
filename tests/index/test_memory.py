"""Deep memory estimator (the Classmexer substitute)."""

import sys

import numpy as np
import pytest

from repro.index import deep_size_bytes
from repro.index.memory import megabytes


class TestDeepSize:
    def test_primitives(self):
        assert deep_size_bytes(42) == sys.getsizeof(42)
        assert deep_size_bytes("hello") == sys.getsizeof("hello")

    def test_container_larger_than_shell(self):
        data = ["x" * 100 for _i in range(10)]
        assert deep_size_bytes(data) > sys.getsizeof(data)

    def test_more_items_more_bytes(self):
        small = [i for i in range(1000, 1010)]
        large = [i for i in range(1000, 1200)]
        assert deep_size_bytes(large) > deep_size_bytes(small)

    def test_shared_objects_counted_once(self):
        shared = "y" * 10_000
        assert deep_size_bytes([shared, shared]) < 2 * deep_size_bytes(shared)

    def test_dict_keys_and_values_counted(self):
        payload = {"k" * 50: "v" * 5000}
        assert deep_size_bytes(payload) > 5000

    def test_numpy_buffer_counted(self):
        array = np.zeros(100_000, dtype=np.float64)
        assert deep_size_bytes(array) >= 800_000
        # Once: getsizeof already includes an owned buffer.
        assert deep_size_bytes(array) == sys.getsizeof(array)
        assert deep_size_bytes(array) < 2 * 800_000

    def test_numpy_view_does_not_double_count(self):
        array = np.zeros(100_000)
        view = array[10:]
        assert deep_size_bytes(view) < 800_000

    def test_object_attributes_followed(self):
        class Holder:
            def __init__(self):
                self.payload = "z" * 10_000

        assert deep_size_bytes(Holder()) > 10_000

    def test_slots_followed(self):
        class Slotted:
            __slots__ = ("payload",)

            def __init__(self):
                self.payload = "z" * 10_000

        assert deep_size_bytes(Slotted()) > 10_000

    def test_cyclic_structures_terminate(self):
        a = []
        a.append(a)
        assert deep_size_bytes(a) > 0

    def test_engine_index_is_measurable(self, engine):
        baseline = deep_size_bytes(engine.cluster_index)
        assert baseline > 0

    def test_megabytes(self):
        assert megabytes(1024 * 1024) == 1.0
