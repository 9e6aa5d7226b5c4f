"""The within-subjects study protocol and its aggregate metrics.

The simulation walks every participant through one 50-minute session per
tool: the five tasks are attempted sequentially; each attempt consumes tool
latency plus think time, and produces a correct answer with a probability
driven by tool granularity, dataset complexity and participant skill.  The
aggregate statistics mirror the ones reported in Section 6.3: completed
tasks, correct answers and relative accuracy (correct / completed), split by
tool, dataset and skill level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import DatasetError
from repro.userstudy.participants import Participant, recruit_participants
from repro.userstudy.tasks import STUDY_TASKS, StudyTask

#: The two tools compared in the study.
TOOLS = ("dataprep", "pandas_profiling")

#: The two study datasets; DelayedFlights is the "complex" one.
DATASETS = ("BirdStrike", "DelayedFlights")

#: Relative complexity of each dataset (affects think time and error rates).
DATASET_COMPLEXITY = {"BirdStrike": 1.0, "DelayedFlights": 1.6}


@dataclass
class ToolLatencies:
    """Measured tool latencies (seconds) that ground the simulation.

    ``dataprep_task_seconds`` is the latency of one fine-grained ``plot*``
    call; ``profile_report_seconds`` is the time to generate the baseline's
    full report, per dataset.  The defaults follow the paper's measurements;
    the Figure 7 benchmark overrides them with timings measured from the
    systems in this repository.
    """

    dataprep_task_seconds: Dict[str, float] = field(
        default_factory=lambda: {"BirdStrike": 2.5, "DelayedFlights": 6.0})
    profile_report_seconds: Dict[str, float] = field(
        default_factory=lambda: {"BirdStrike": 45.0, "DelayedFlights": 400.0})


@dataclass
class TaskOutcome:
    """Result of one participant attempting one task."""

    participant_id: int
    skill: str
    tool: str
    dataset: str
    task_id: int
    completed: bool
    correct: bool
    minutes_spent: float


@dataclass
class StudyResult:
    """All task outcomes plus the aggregate metrics of the study."""

    outcomes: List[TaskOutcome]
    session_minutes: float

    # ------------------------------------------------------------------ #
    # Aggregations
    # ------------------------------------------------------------------ #
    def _select(self, tool: Optional[str] = None, dataset: Optional[str] = None,
                skill: Optional[str] = None) -> List[TaskOutcome]:
        selected = self.outcomes
        if tool is not None:
            selected = [outcome for outcome in selected if outcome.tool == tool]
        if dataset is not None:
            selected = [outcome for outcome in selected if outcome.dataset == dataset]
        if skill is not None:
            selected = [outcome for outcome in selected if outcome.skill == skill]
        return selected

    def completed_per_participant(self, tool: str, dataset: Optional[str] = None,
                                  skill: Optional[str] = None) -> float:
        """Mean number of completed tasks per participant session."""
        selected = self._select(tool, dataset, skill)
        if not selected:
            return 0.0
        sessions = {(outcome.participant_id, outcome.dataset) for outcome in selected}
        completed = sum(1 for outcome in selected if outcome.completed)
        return completed / len(sessions)

    def correct_per_participant(self, tool: str, dataset: Optional[str] = None,
                                skill: Optional[str] = None) -> float:
        """Mean number of correct answers per participant session."""
        selected = self._select(tool, dataset, skill)
        if not selected:
            return 0.0
        sessions = {(outcome.participant_id, outcome.dataset) for outcome in selected}
        correct = sum(1 for outcome in selected if outcome.correct)
        return correct / len(sessions)

    def relative_accuracy(self, tool: str, dataset: Optional[str] = None,
                          skill: Optional[str] = None) -> float:
        """Correct answers / completed tasks (the paper's headline metric)."""
        selected = self._select(tool, dataset, skill)
        completed = sum(1 for outcome in selected if outcome.completed)
        if completed == 0:
            return 0.0
        correct = sum(1 for outcome in selected if outcome.correct)
        return correct / completed

    def completion_ratio(self) -> float:
        """Completed-task ratio DataPrep.EDA / baseline (paper: 2.05x)."""
        baseline = self.completed_per_participant("pandas_profiling")
        if baseline == 0:
            return float("inf")
        return self.completed_per_participant("dataprep") / baseline

    def correctness_ratio(self) -> float:
        """Correct-answer ratio DataPrep.EDA / baseline (paper: 2.2x)."""
        baseline = self.correct_per_participant("pandas_profiling")
        if baseline == 0:
            return float("inf")
        return self.correct_per_participant("dataprep") / baseline

    def summary(self) -> Dict[str, float]:
        """The headline numbers reported in Section 6.3."""
        return {
            "dataprep_completed": self.completed_per_participant("dataprep"),
            "baseline_completed": self.completed_per_participant("pandas_profiling"),
            "completion_ratio": self.completion_ratio(),
            "dataprep_correct": self.correct_per_participant("dataprep"),
            "baseline_correct": self.correct_per_participant("pandas_profiling"),
            "correctness_ratio": self.correctness_ratio(),
            "dataprep_relative_accuracy": self.relative_accuracy("dataprep"),
            "baseline_relative_accuracy": self.relative_accuracy("pandas_profiling"),
        }


def summarize_by_skill(result: StudyResult) -> Dict[str, Dict[str, float]]:
    """Figure 7: relative accuracy per tool, dataset and skill level."""
    table: Dict[str, Dict[str, float]] = {}
    for tool in TOOLS:
        for dataset in DATASETS:
            for skill in ("novice", "skilled"):
                key = f"{tool}/{dataset}/{skill}"
                table[key] = {
                    "relative_accuracy": result.relative_accuracy(tool, dataset, skill),
                    "completed": result.completed_per_participant(tool, dataset, skill),
                    "correct": result.correct_per_participant(tool, dataset, skill),
                }
    return table


def run_user_study(n_participants: int = 32, session_minutes: float = 25.0,
                   latencies: Optional[ToolLatencies] = None,
                   seed: int = 7) -> StudyResult:
    """Run the simulated within-subjects study.

    Each participant completes one session per tool; tool-dataset pairings and
    ordering are counterbalanced across the pool.  *session_minutes* is the
    time budget per session (the original 50-minute session covered both
    tools plus surveys, so half of it is a session here).
    """
    if n_participants <= 0:
        raise DatasetError("n_participants must be positive")
    latencies = latencies or ToolLatencies()
    rng = np.random.default_rng(seed)
    participants = recruit_participants(n_participants, seed=seed)

    outcomes: List[TaskOutcome] = []
    for participant in participants:
        # Counterbalancing: alternate which tool sees which dataset and which
        # session comes first (order effects are not modelled beyond this).
        if participant.participant_id % 2 == 0:
            assignment = (("dataprep", DATASETS[0]), ("pandas_profiling", DATASETS[1]))
        else:
            assignment = (("dataprep", DATASETS[1]), ("pandas_profiling", DATASETS[0]))
        for tool, dataset in assignment:
            outcomes.extend(_run_session(participant, tool, dataset,
                                         session_minutes, latencies, rng))
    return StudyResult(outcomes=outcomes, session_minutes=session_minutes)


def _run_session(participant: Participant, tool: str, dataset: str,
                 session_minutes: float, latencies: ToolLatencies,
                 rng: np.random.Generator) -> List[TaskOutcome]:
    complexity = DATASET_COMPLEXITY[dataset]
    remaining = session_minutes
    outcomes: List[TaskOutcome] = []

    report_generated = False
    for task in STUDY_TASKS:
        if remaining <= 0:
            outcomes.append(TaskOutcome(participant.participant_id, participant.skill,
                                        tool, dataset, task.task_id, False, False, 0.0))
            continue
        minutes, correct_probability = _attempt(
            participant, tool, dataset, task, complexity, latencies,
            report_generated, rng)
        if tool == "pandas_profiling":
            report_generated = True
        completed = minutes <= remaining
        spent = min(minutes, remaining)
        remaining -= spent
        correct = bool(completed and rng.random() < correct_probability)
        outcomes.append(TaskOutcome(participant.participant_id, participant.skill,
                                    tool, dataset, task.task_id, completed, correct,
                                    spent))
    return outcomes


def _attempt(participant: Participant, tool: str, dataset: str, task: StudyTask,
             complexity: float, latencies: ToolLatencies, report_generated: bool,
             rng: np.random.Generator) -> Tuple[float, float]:
    """Minutes needed and probability of a correct answer for one attempt."""
    think = task.think_minutes * participant.speed * complexity * \
        float(rng.normal(1.0, 0.15))
    think = max(think, 0.5)

    if tool == "dataprep":
        # One plot call per interaction; results are task-specific, so the
        # reading overhead is low and mostly independent of dataset width.
        tool_minutes = task.interactions * \
            latencies.dataprep_task_seconds[dataset] / 60.0
        minutes = think + tool_minutes + 0.4 * task.interactions
        correct = 0.9 * participant.care
        # Fine-grained output keeps the skill gap and complexity penalty small.
        correct -= 0.03 * (complexity - 1.0)
    else:
        # The profile report is generated once per session (the first task
        # pays for it) and re-read for every task.
        report_minutes = 0.0 if report_generated else \
            latencies.profile_report_seconds[dataset] / 60.0
        navigation = 1.5 * complexity * participant.speed
        minutes = think + report_minutes + navigation
        # Tasks the all-columns report does not directly cover require manual
        # digging: more time, much lower accuracy — and the penalty is worse
        # for novices and for the complex dataset.
        gap = 1.0 - task.report_coverage
        minutes += gap * 6.0 * complexity * participant.speed
        correct = (0.40 + 0.48 * task.report_coverage) * participant.care
        correct -= 0.28 * gap * (complexity - 1.0)
        if not participant.is_skilled:
            correct -= 0.15 * gap * complexity
    return minutes, float(np.clip(correct, 0.02, 0.98))
