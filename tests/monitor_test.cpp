//===- tests/monitor_test.cpp - Unit tests for rcs_monitor ------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "monitor/Alarm.h"
#include "monitor/Exposition.h"
#include "monitor/FlightRecorder.h"
#include "monitor/Supervisor.h"

#include "core/Designs.h"
#include "sim/Transient.h"
#include "system/Monitoring.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

using namespace rcs;
using namespace rcs::monitor;
using rcsystem::AlarmLevel;
using rcsystem::ControlAction;

namespace {

/// A temperature-style alarm: warn at 35, critical at 45, 2 K of
/// hysteresis, two-sample debounce, latching.
AlarmConfig tempAlarm() {
  AlarmConfig Config;
  Config.WarnThreshold = 35.0;
  Config.CriticalThreshold = 45.0;
  Config.HighIsBad = true;
  Config.Hysteresis = 2.0;
  Config.DebounceSamples = 2;
  Config.LatchCritical = true;
  return Config;
}

std::string readWholeFile(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  EXPECT_NE(File, nullptr) << Path;
  if (!File)
    return "";
  std::string Text;
  char Buffer[4096];
  size_t Got;
  while ((Got = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Text.append(Buffer, Got);
  std::fclose(File);
  return Text;
}

} // namespace

//===----------------------------------------------------------------------===//
// Alarm state machine
//===----------------------------------------------------------------------===//

TEST(AlarmTest, DebounceSuppressesSingleSampleSpikes) {
  telemetry::Registry Reg;
  AlarmStateMachine Alarm("t", tempAlarm(), &Reg);
  EXPECT_EQ(Alarm.update(0.0, 30.0), AlarmState::Normal);
  // One excursion sample does not assert...
  EXPECT_EQ(Alarm.update(1.0, 40.0), AlarmState::Normal);
  EXPECT_EQ(Alarm.update(2.0, 30.0), AlarmState::Normal);
  // ...but two consecutive ones do.
  EXPECT_EQ(Alarm.update(3.0, 40.0), AlarmState::Normal);
  EXPECT_EQ(Alarm.update(4.0, 40.0), AlarmState::Warning);
  EXPECT_EQ(Alarm.transitions().size(), 1u);
  EXPECT_EQ(Alarm.transitions()[0].From, AlarmState::Normal);
  EXPECT_EQ(Alarm.transitions()[0].To, AlarmState::Warning);
  EXPECT_EQ(Alarm.transitions()[0].TimeS, 4.0);
}

TEST(AlarmTest, HysteresisHoldsUntilRearmed) {
  telemetry::Registry Reg;
  AlarmStateMachine Alarm("t", tempAlarm(), &Reg);
  Alarm.update(0.0, 40.0);
  ASSERT_EQ(Alarm.update(1.0, 40.0), AlarmState::Warning);
  // Just below the warning threshold but inside the 2 K hysteresis band:
  // the alarm holds.
  EXPECT_EQ(Alarm.update(2.0, 34.0), AlarmState::Warning);
  EXPECT_EQ(Alarm.update(3.0, 33.5), AlarmState::Warning);
  // Past warn - hysteresis: clears.
  EXPECT_EQ(Alarm.update(4.0, 32.0), AlarmState::Normal);
  // A fresh excursion re-arms and asserts after the debounce again.
  Alarm.update(5.0, 40.0);
  EXPECT_EQ(Alarm.update(6.0, 40.0), AlarmState::Warning);
}

TEST(AlarmTest, CriticalLatchesUntilAcknowledged) {
  telemetry::Registry Reg;
  AlarmStateMachine Alarm("t", tempAlarm(), &Reg);
  Alarm.update(0.0, 50.0);
  ASSERT_EQ(Alarm.update(1.0, 50.0), AlarmState::Critical);
  EXPECT_EQ(Alarm.level(), AlarmLevel::Critical);
  // The process returns to normal, but the indication latches.
  EXPECT_EQ(Alarm.update(2.0, 20.0), AlarmState::Latched);
  EXPECT_EQ(Alarm.level(), AlarmLevel::Critical)
      << "a latched alarm still displays critical";
  // Acknowledged with the process healthy: drops to normal.
  EXPECT_TRUE(Alarm.acknowledge(3.0));
  EXPECT_EQ(Alarm.state(), AlarmState::Normal);
  EXPECT_EQ(Reg.counter("monitor.alarm.latches").value(), 1u);
}

TEST(AlarmTest, AcknowledgeDuringExcursionTracksProcess) {
  telemetry::Registry Reg;
  AlarmStateMachine Alarm("t", tempAlarm(), &Reg);
  Alarm.update(0.0, 50.0);
  ASSERT_EQ(Alarm.update(1.0, 50.0), AlarmState::Critical);
  // Acknowledged while still critical: the indication stays critical.
  EXPECT_TRUE(Alarm.acknowledge(2.0));
  EXPECT_EQ(Alarm.state(), AlarmState::CriticalAcked);
  EXPECT_EQ(Alarm.level(), AlarmLevel::Critical);
  // Once acknowledged there is nothing to latch: clearing the process
  // clears the alarm.
  EXPECT_EQ(Alarm.update(3.0, 20.0), AlarmState::Normal);
}

TEST(AlarmTest, LatchedReassertsWithoutDebounce) {
  telemetry::Registry Reg;
  AlarmStateMachine Alarm("t", tempAlarm(), &Reg);
  Alarm.update(0.0, 50.0);
  Alarm.update(1.0, 50.0);
  ASSERT_EQ(Alarm.update(2.0, 20.0), AlarmState::Latched);
  // The same excursion resuming is not chatter: one critical sample
  // re-asserts immediately.
  EXPECT_EQ(Alarm.update(3.0, 50.0), AlarmState::Critical);
}

TEST(AlarmTest, UnlatchedCriticalClearsDirectly) {
  telemetry::Registry Reg;
  AlarmConfig Config = tempAlarm();
  Config.LatchCritical = false;
  AlarmStateMachine Alarm("t", Config, &Reg);
  Alarm.update(0.0, 50.0);
  ASSERT_EQ(Alarm.update(1.0, 50.0), AlarmState::Critical);
  EXPECT_EQ(Alarm.update(2.0, 20.0), AlarmState::Normal);
}

TEST(AlarmTest, LowIsBadDirectionWorks) {
  telemetry::Registry Reg;
  AlarmConfig Config;
  Config.WarnThreshold = 0.7;
  Config.CriticalThreshold = 0.3;
  Config.HighIsBad = false;
  Config.Hysteresis = 0.05;
  Config.DebounceSamples = 2;
  AlarmStateMachine Alarm("flow", Config, &Reg);
  Alarm.update(0.0, 0.1);
  ASSERT_EQ(Alarm.update(1.0, 0.1), AlarmState::Critical);
  // Inside the hysteresis band above critical: holds.
  EXPECT_EQ(Alarm.level(), AlarmLevel::Critical);
  Alarm.acknowledge(1.5);
  EXPECT_EQ(Alarm.update(2.0, 0.32), AlarmState::CriticalAcked);
  // Past critical + hysteresis: drops to the warning band.
  EXPECT_EQ(Alarm.update(3.0, 0.5), AlarmState::Warning);
  EXPECT_EQ(Alarm.update(4.0, 1.0), AlarmState::Normal);
}

TEST(AlarmTest, NonFiniteReadingFailsSafe) {
  telemetry::Registry Reg;
  AlarmStateMachine Alarm("t", tempAlarm(), &Reg);
  double NaN = std::numeric_limits<double>::quiet_NaN();
  Alarm.update(0.0, NaN);
  EXPECT_EQ(Alarm.update(1.0, NaN), AlarmState::Critical)
      << "a failed sensor must trip, not stay silent";
}

TEST(AlarmTest, TransitionsEmitTelemetry) {
  telemetry::Registry Reg;
  AlarmStateMachine Alarm("oil temperature", tempAlarm(), &Reg);
  Alarm.update(0.0, 50.0);
  Alarm.update(1.0, 50.0);
  Alarm.update(2.0, 20.0);
  EXPECT_EQ(Reg.counter("monitor.alarm.transitions").value(), 2u);
  // The per-alarm value histogram records every sample under a
  // slugified name.
  telemetry::MetricsSnapshot Snapshot = Reg.snapshotMetrics();
  bool FoundHistogram = false;
  for (const auto &[Name, H] : Snapshot.Histograms)
    if (Name == "monitor.alarm.oil_temperature.value") {
      FoundHistogram = true;
      EXPECT_EQ(H.Count, 3u);
    }
  EXPECT_TRUE(FoundHistogram);
}

//===----------------------------------------------------------------------===//
// Supervisor
//===----------------------------------------------------------------------===//

TEST(SupervisorTest, ModuleBankMapsToControllerPolicy) {
  telemetry::Registry Reg;
  rcsystem::MonitoringConfig Config;
  SupervisorTuning Tuning;
  Tuning.DebounceSamples = 1; // Immediate for this test.
  Supervisor Super = makeModuleSupervisor(Config, Tuning, &Reg);
  ASSERT_EQ(Super.numSensors(), 3u);

  // Healthy: no action.
  double Healthy[3] = {30.0, 55.0, 2.0e-3};
  EXPECT_EQ(recommendModuleAction(Super.update(0.0, Healthy, 3)),
            ControlAction::None);
  // Warm junction: shed clocks.
  double WarmChip[3] = {30.0, 75.0, 2.0e-3};
  EXPECT_EQ(recommendModuleAction(Super.update(1.0, WarmChip, 3)),
            ControlAction::ReduceClock);
  // Warm coolant on top: the junction warning still wins the clock shed.
  double WarmBoth[3] = {38.0, 75.0, 2.0e-3};
  EXPECT_EQ(recommendModuleAction(Super.update(2.0, WarmBoth, 3)),
            ControlAction::ReduceClock);
  // Critical flow: shutdown.
  double LostFlow[3] = {30.0, 55.0, 1.0e-4};
  EXPECT_EQ(recommendModuleAction(Super.update(3.0, LostFlow, 3)),
            ControlAction::Shutdown);
}

TEST(SupervisorTest, DebounceDelaysEscalationBySweeps) {
  telemetry::Registry Reg;
  rcsystem::MonitoringConfig Config;
  SupervisorTuning Tuning;
  Tuning.DebounceSamples = 2;
  Supervisor Super = makeModuleSupervisor(Config, Tuning, &Reg);
  double LostFlow[3] = {30.0, 55.0, 1.0e-4};
  EXPECT_EQ(Super.update(0.0, LostFlow, 3).Worst, AlarmLevel::Normal);
  EXPECT_EQ(Super.update(1.0, LostFlow, 3).Worst, AlarmLevel::Critical);
}

TEST(SupervisorTest, LatchedAlarmKeepsWorstCritical) {
  telemetry::Registry Reg;
  rcsystem::MonitoringConfig Config;
  SupervisorTuning Tuning;
  Tuning.DebounceSamples = 1;
  Supervisor Super = makeModuleSupervisor(Config, Tuning, &Reg);
  double LostFlow[3] = {30.0, 55.0, 1.0e-4};
  Super.update(0.0, LostFlow, 3);
  double Healthy[3] = {30.0, 55.0, 2.0e-3};
  SupervisoryReport Report = Super.update(1.0, Healthy, 3);
  EXPECT_TRUE(Report.anyLatched());
  EXPECT_EQ(Report.Worst, AlarmLevel::Critical)
      << "an unacknowledged trip must stay visible";
  EXPECT_TRUE(Super.acknowledgeAll(2.0));
  EXPECT_EQ(Super.update(3.0, Healthy, 3).Worst, AlarmLevel::Normal);
}

TEST(SupervisorTest, AllTransitionsMergeInTimeOrder) {
  telemetry::Registry Reg;
  rcsystem::MonitoringConfig Config;
  SupervisorTuning Tuning;
  Tuning.DebounceSamples = 1;
  Supervisor Super = makeModuleSupervisor(Config, Tuning, &Reg);
  double WarmOil[3] = {38.0, 55.0, 2.0e-3};
  double WarmBoth[3] = {38.0, 75.0, 2.0e-3};
  double Healthy[3] = {30.0, 55.0, 2.0e-3};
  Super.update(0.0, WarmOil, 3);
  Super.update(1.0, WarmBoth, 3);
  Super.update(2.0, Healthy, 3);
  std::vector<AlarmTransition> Log = Super.allTransitions();
  ASSERT_GE(Log.size(), 4u);
  for (size_t I = 1; I != Log.size(); ++I)
    EXPECT_LE(Log[I - 1].TimeS, Log[I].TimeS);
}

//===----------------------------------------------------------------------===//
// Flight recorder
//===----------------------------------------------------------------------===//

TEST(FlightRecorderTest, WraparoundKeepsNewestFrames) {
  telemetry::Registry Reg;
  FlightRecorderConfig Config;
  Config.CapacityFrames = 4;
  FlightRecorder Recorder({"a", "b"}, Config, &Reg);
  for (int I = 0; I != 10; ++I) {
    double Values[2] = {double(I), double(I) * 10.0};
    Recorder.record(double(I), Values, 2);
  }
  EXPECT_EQ(Recorder.framesHeld(), 4u);
  EXPECT_EQ(Recorder.framesRecorded(), 10u);
  std::vector<FlightRecorder::Frame> Window = Recorder.window();
  ASSERT_EQ(Window.size(), 4u);
  // Oldest first: frames 6..9 survive.
  EXPECT_EQ(Window.front().TimeS, 6.0);
  EXPECT_EQ(Window.back().TimeS, 9.0);
  EXPECT_EQ(Window.back().Values[1], 90.0);
}

TEST(FlightRecorderTest, DumpWindowBracketsTrigger) {
  telemetry::Registry Reg;
  FlightRecorderConfig Config;
  Config.CapacityFrames = 100;
  Config.PostTriggerFrames = 5;
  Config.DumpPath = ::testing::TempDir() + "monitor_test_dump.jsonl";
  FlightRecorder Recorder({"x"}, Config, &Reg);
  double Time = 0.0;
  for (; Time < 50.0; Time += 1.0) {
    Recorder.record(Time, &Time, 1);
  }
  EXPECT_TRUE(Recorder.trigger("test trip", Time));
  EXPECT_FALSE(Recorder.dumped()) << "dump waits for the post-trip tail";
  for (int I = 0; I != 5; ++I, Time += 1.0)
    Recorder.record(Time, &Time, 1);
  ASSERT_TRUE(Recorder.dumped());
  ASSERT_TRUE(Recorder.lastDumpStatus().isOk())
      << Recorder.lastDumpStatus().message();

  std::string Dump = readWholeFile(Config.DumpPath);
  EXPECT_NE(Dump.find("\"kind\": \"flight_recorder_header\""),
            std::string::npos);
  EXPECT_NE(Dump.find("\"reason\": \"test trip\""), std::string::npos);
  EXPECT_NE(Dump.find("\"trigger_t_s\": 50"), std::string::npos);
  // Window = 50 pre-trip frames + 5 tail frames.
  std::vector<FlightRecorder::Frame> Window = Recorder.window();
  ASSERT_EQ(Window.size(), 55u);
  EXPECT_LE(Window.front().TimeS, 50.0);
  EXPECT_GE(Window.back().TimeS, 50.0);
  std::remove(Config.DumpPath.c_str());
}

TEST(FlightRecorderTest, FinalizeFlushesShortTail) {
  telemetry::Registry Reg;
  FlightRecorderConfig Config;
  Config.CapacityFrames = 16;
  Config.PostTriggerFrames = 100; // Never reached.
  Config.DumpPath = ::testing::TempDir() + "monitor_test_shorttail.jsonl";
  FlightRecorder Recorder({"x"}, Config, &Reg);
  double Value = 1.0;
  Recorder.record(0.0, &Value, 1);
  Recorder.trigger("end of run", 0.0);
  Recorder.record(1.0, &Value, 1);
  EXPECT_FALSE(Recorder.dumped());
  EXPECT_TRUE(Recorder.finalize().isOk());
  EXPECT_TRUE(Recorder.dumped());
  std::string Dump = readWholeFile(Config.DumpPath);
  EXPECT_NE(Dump.find("\"frames\": 2"), std::string::npos);
  std::remove(Config.DumpPath.c_str());
}

TEST(FlightRecorderTest, OnlyFirstTriggerArms) {
  telemetry::Registry Reg;
  FlightRecorderConfig Config;
  Config.CapacityFrames = 8;
  FlightRecorder Recorder({"x"}, Config, &Reg);
  EXPECT_TRUE(Recorder.trigger("first", 1.0));
  EXPECT_FALSE(Recorder.trigger("second", 2.0));
  EXPECT_EQ(Reg.counter("monitor.flight.ignored_triggers").value(), 1u);
}

TEST(FlightRecorderTest, TriggerWithoutPathIsAnError) {
  telemetry::Registry Reg;
  FlightRecorderConfig Config;
  Config.CapacityFrames = 8;
  Config.PostTriggerFrames = 0;
  FlightRecorder Recorder({"x"}, Config, &Reg);
  double Value = 1.0;
  Recorder.record(0.0, &Value, 1);
  Recorder.trigger("no path", 0.0);
  EXPECT_FALSE(Recorder.lastDumpStatus().isOk());
}

//===----------------------------------------------------------------------===//
// Exposition
//===----------------------------------------------------------------------===//

TEST(ExpositionTest, PrometheusNamesFollowTheGrammar) {
  EXPECT_EQ(prometheusName("sim.transient.steps"), "sim_transient_steps");
  EXPECT_EQ(prometheusName("rack water temperature"),
            "rack_water_temperature");
  EXPECT_EQ(prometheusName("9lives"), "_9lives");
  EXPECT_EQ(prometheusName("a:b_c1"), "a:b_c1");
}

TEST(ExpositionTest, RenderPrometheusCoversAllMetricKinds) {
  telemetry::Registry Reg;
  Reg.counter("test.count").add(3);
  Reg.gauge("test.level").set(1.5);
  telemetry::Histogram &H = Reg.histogram("test.latency");
  for (int I = 1; I <= 100; ++I)
    H.record(double(I));
  std::string Text = renderPrometheus(Reg.snapshotMetrics(), "skatsim");
  EXPECT_NE(Text.find("# TYPE skatsim_test_count_total counter"),
            std::string::npos);
  EXPECT_NE(Text.find("skatsim_test_count_total 3"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE skatsim_test_level gauge"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE skatsim_test_latency summary"),
            std::string::npos);
  EXPECT_NE(Text.find("skatsim_test_latency{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(Text.find("skatsim_test_latency{quantile=\"0.95\"}"),
            std::string::npos);
  EXPECT_NE(Text.find("skatsim_test_latency{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(Text.find("skatsim_test_latency_count 100"),
            std::string::npos);
}

TEST(ExpositionTest, TimersExposeExtremesButNoMedian) {
  // Timers keep count, total, min and max only. Their mean (here 0.25 s)
  // is not a median, so no quantile="0.5" sample may carry it.
  telemetry::MetricsSnapshot Snapshot;
  telemetry::SpanStats Step;
  Step.Count = 4;
  Step.TotalS = 1.0;
  Step.MinS = 0.125;
  Step.MaxS = 0.5;
  Snapshot.Timers.push_back({"test.step", Step});
  std::string Text = renderPrometheus(Snapshot, "skatsim");
  EXPECT_NE(Text.find("# TYPE skatsim_test_step_seconds summary\n"),
            std::string::npos);
  EXPECT_NE(Text.find("skatsim_test_step_seconds{quantile=\"0\"} 0.125\n"),
            std::string::npos);
  EXPECT_NE(Text.find("skatsim_test_step_seconds{quantile=\"1\"} 0.5\n"),
            std::string::npos);
  EXPECT_NE(Text.find("skatsim_test_step_seconds_sum 1\n"),
            std::string::npos);
  EXPECT_NE(Text.find("skatsim_test_step_seconds_count 4\n"),
            std::string::npos);
  EXPECT_EQ(Text.find("quantile=\"0.5\""), std::string::npos) << Text;
}

TEST(ExpositionTest, SnapshotLineCarriesQuantiles) {
  telemetry::Registry Reg;
  telemetry::Histogram &H = Reg.histogram("test.latency");
  for (int I = 1; I <= 10; ++I)
    H.record(double(I));
  std::string Line = renderSnapshotLine(Reg.snapshotMetrics(), 42.0);
  EXPECT_EQ(Line.rfind("{\"t_s\": 42", 0), 0u);
  EXPECT_NE(Line.find("\"p50\": "), std::string::npos);
  EXPECT_NE(Line.find("\"p95\": "), std::string::npos);
  EXPECT_NE(Line.find("\"p99\": "), std::string::npos);
  EXPECT_EQ(Line.find('\n'), std::string::npos);
}

TEST(ExpositionTest, SnapshotWriterGatesOnSimTime) {
  telemetry::Registry Reg;
  Reg.counter("test.count").add();
  std::string Path = ::testing::TempDir() + "monitor_test_snapshots.jsonl";
  {
    SnapshotWriter Writer(Path, 10.0, &Reg);
    ASSERT_TRUE(Writer.isOpen());
    EXPECT_TRUE(Writer.maybeSample(0.0).isOk());  // First always writes.
    EXPECT_TRUE(Writer.maybeSample(5.0).isOk());  // Inside the period.
    EXPECT_TRUE(Writer.maybeSample(12.0).isOk()); // Past it.
    EXPECT_EQ(Writer.numSnapshots(), 2u);
    EXPECT_TRUE(Writer.close().isOk());
  }
  std::string Text = readWholeFile(Path);
  EXPECT_NE(Text.find("{\"t_s\": 0"), std::string::npos);
  EXPECT_NE(Text.find("{\"t_s\": 12"), std::string::npos);
  EXPECT_EQ(Text.find("{\"t_s\": 5"), std::string::npos);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Simulator integration
//===----------------------------------------------------------------------===//

TEST(MonitorSimTest, PumpFailureLatchesAndDumps) {
  sim::TransientSimulator Simulator(core::makeSkatModule(),
                                    core::makeNominalConditions());
  // Pump dies after warm-up and is repaired half an hour later, so the
  // flow alarm runs the whole lifecycle: assert, latch, acknowledge.
  Simulator.schedulePumpSpeed(1800.0, 0.0);
  Simulator.schedulePumpSpeed(3600.0, 1.0);

  FlightRecorderConfig Config;
  Config.CapacityFrames = 600;
  Config.PostTriggerFrames = 30;
  Config.DumpPath = ::testing::TempDir() + "monitor_test_sim_dump.jsonl";
  FlightRecorder Recorder(sim::TransientSimulator::flightChannels(),
                          Config);
  Simulator.attachFlightRecorder(&Recorder);

  auto Trace = Simulator.run(2.0 * 3600.0);
  ASSERT_TRUE(Trace.hasValue()) << Trace.message();

  // The lost flow asserted a critical alarm and latched it on repair.
  std::vector<AlarmTransition> Log =
      Simulator.supervisor().allTransitions();
  bool SawCritical = false, SawLatch = false;
  for (const AlarmTransition &T : Log) {
    SawCritical |= T.To == AlarmState::Critical;
    SawLatch |= T.From == AlarmState::Critical &&
                T.To == AlarmState::Latched;
  }
  EXPECT_TRUE(SawCritical);
  EXPECT_TRUE(SawLatch);

  // The critical alarm triggered the recorder, and the dumped window
  // brackets the trip.
  ASSERT_TRUE(Recorder.triggered());
  ASSERT_TRUE(Recorder.dumped());
  ASSERT_TRUE(Recorder.lastDumpStatus().isOk())
      << Recorder.lastDumpStatus().message();
  double TripTime = 0.0;
  for (const AlarmTransition &T : Log)
    if (T.To == AlarmState::Critical) {
      TripTime = T.TimeS;
      break;
    }
  std::string Dump = readWholeFile(Config.DumpPath);
  double FirstFrameTime = 0.0, LastFrameTime = 0.0;
  bool SawFrame = false;
  size_t Pos = Dump.find("\"kind\": \"frame\"");
  while (Pos != std::string::npos) {
    size_t TimePos = Dump.find("\"t_s\": ", Pos);
    ASSERT_NE(TimePos, std::string::npos);
    double Time = std::strtod(Dump.c_str() + TimePos + 7, nullptr);
    if (!SawFrame)
      FirstFrameTime = Time;
    SawFrame = true;
    LastFrameTime = Time;
    Pos = Dump.find("\"kind\": \"frame\"", TimePos);
  }
  ASSERT_TRUE(SawFrame);
  EXPECT_LE(FirstFrameTime, TripTime);
  EXPECT_GE(LastFrameTime, TripTime);
  EXPECT_GT(LastFrameTime, FirstFrameTime);

  // Acknowledging drops the latched annunciator back to normal.
  EXPECT_TRUE(Simulator.supervisor().acknowledgeAll(2.0 * 3600.0));
  std::remove(Config.DumpPath.c_str());
}
