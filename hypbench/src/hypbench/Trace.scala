package hypbench

import java.lang.management.ManagementFactory
import org.apache.spark.HypBenchBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart,
  SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import repro.core.{ContingencyTable, StatsProvider}
import repro.core.IndepTest.Tester
import scala.collection.mutable

/** Jobs and tasks counted from the listener bus, with each job's
  * [submitted, ended] interval in epoch milliseconds.
  */
final class JobCounter(spark: SparkSession) extends SparkListener {
  private var jobCount  = 0L
  private var taskCount = 0L
  private val started   = mutable.Map.empty[Int, Long]
  private val intervals = mutable.ArrayBuffer.empty[(Long, Long)]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobCount += 1; started(e.jobId) = e.time
  }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    started.remove(e.jobId).foreach(s => intervals += ((s, e.time)))
  }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized { taskCount += 1 }

  /** Counts after every event posted so far has been delivered. */
  def jobs: Long  = { HypBenchBus.drain(spark.sparkContext); synchronized(jobCount) }
  def tasks: Long = { HypBenchBus.drain(spark.sparkContext); synchronized(taskCount) }

  /** Seconds of [fromMs, toMs] during which at least one job ran. */
  def busySeconds(fromMs: Long, toMs: Long): Double = {
    HypBenchBus.drain(spark.sparkContext)
    val clipped = synchronized(intervals.toVector)
      .map { case (s, e) => (math.max(s, fromMs), math.min(e, toMs)) }
      .filter { case (s, e) => e > s }
      .sortBy(_._1)
    var total = 0L; var lo = 0L; var hi = -1L
    for ((s, e) <- clipped) {
      if (s > hi) { total += math.max(0L, hi - lo); lo = s; hi = e }
      else hi = math.max(hi, e)
    }
    (total + math.max(0L, hi - lo)) / 1000.0
  }
}

/** Driver-thread CPU and JVM GC time, read before and after a call. */
object JvmClock {
  private val threads = ManagementFactory.getThreadMXBean
  def cpuSeconds: Double = threads.getCurrentThreadCpuTime / 1e9
  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.toArray
      .map(_.asInstanceOf[java.lang.management.GarbageCollectorMXBean].getCollectionTime)
      .filter(_ >= 0).sum / 1000.0
  def heapMb: Double = {
    // Spark's ContextCleaner releases shuffle and broadcast state only after
    // a GC has cleared its weak references; collect again once it has run
    System.gc(); Thread.sleep(500); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}

/** Spans around the benchmark's calls into `repro.core`: total seconds and
  * calls per name, Spark jobs for spans that run Spark actions, and the
  * summed duration of top-level spans for the coverage ratio.
  */
final class Tracer(counter: JobCounter) {
  val seconds  = mutable.Map.empty[String, Double].withDefaultValue(0.0)
  val calls    = mutable.Map.empty[String, Long].withDefaultValue(0L)
  val jobs     = mutable.Map.empty[String, Long].withDefaultValue(0L)
  var topLevel = 0.0
  private var depth = 0

  def span[A](name: String, runsJobs: Boolean = false)(body: => A): A = {
    val j0 = if (runsJobs) counter.jobs else 0L
    val t0 = System.nanoTime()
    depth += 1
    try body
    finally {
      depth -= 1
      val dt = (System.nanoTime() - t0) / 1e9
      seconds(name) += dt
      calls(name) += 1
      if (depth == 0) topLevel += dt
      if (runsJobs) jobs(name) += counter.jobs - j0
    }
  }
}

/** Delegates to `inner`, counting and timing contingency and entropy
  * requests. `cmi`, `conditionalEntropy` and `distinctCount` keep the
  * trait's definitions, so they reach `inner` through these two methods
  * exactly as they would without the wrapper.
  */
final class TracedStats(inner: StatsProvider) extends StatsProvider {
  def attributes: Seq[String] = inner.attributes
  def n: Long                 = inner.n
  var contingencyCalls = 0L; var contingencyNanos = 0L
  var entropyCalls     = 0L; var entropyNanos     = 0L

  override def entropyEvaluations: Long = inner.entropyEvaluations

  def contingency(attrs: Seq[String]): ContingencyTable = {
    contingencyCalls += 1
    val t0 = System.nanoTime()
    try inner.contingency(attrs) finally contingencyNanos += System.nanoTime() - t0
  }

  def entropy(attrs: Seq[String]): Double = {
    entropyCalls += 1
    val t0 = System.nanoTime()
    try inner.entropy(attrs) finally entropyNanos += System.nanoTime() - t0
  }
}

/** A Markov-boundary cache for `CD.Config.mbCache` that times each miss
  * (one Grow-Shrink run) and counts the tests it performs. A fresh cache
  * per CD call misses once per node, so CD runs Grow-Shrink exactly as it
  * does without a cache.
  */
final class TimingMbCache(tester: Tester) extends mutable.AbstractMap[String, Set[String]] {
  private val m = mutable.HashMap.empty[String, Set[String]]
  var misses = 0L; var nanos = 0L; var tests = 0L

  def get(key: String): Option[Set[String]]           = m.get(key)
  def iterator: Iterator[(String, Set[String])]       = m.iterator
  def addOne(kv: (String, Set[String])): this.type    = { m.addOne(kv); this }
  def subtractOne(key: String): this.type             = { m.subtractOne(key); this }

  override def getOrElseUpdate(key: String, op: => Set[String]): Set[String] =
    m.get(key) match {
      case Some(v) => v
      case None =>
        val (t0, c0) = (System.nanoTime(), tester.counter.tests)
        val v = op
        nanos += System.nanoTime() - t0
        tests += tester.counter.tests - c0
        misses += 1
        m(key) = v
        v
    }
}
