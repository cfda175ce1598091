"""The start method of every process the package launches."""

import multiprocessing


def start_method() -> str:
    """``fork`` where the platform has it (workers then also see
    workloads and policies registered after import), else the
    platform's default."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]
