"""Workload substrate: every benchmark driver used in the evaluation."""

from repro.workloads.base import Workload

__all__ = ["Workload"]
