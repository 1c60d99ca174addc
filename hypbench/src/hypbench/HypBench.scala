package hypbench

import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** The HypDB benchmark: one workload per process, one caller thread in a
  * closed loop. Spark settings arrive as `spark.*` system properties.
  *
  *   --workload flight-analyze|staples-analyze|q1-sweep
  *   --seed n       row layout of the cached relation (analyze workloads)
  *   --seconds s    how long the timed (or traced) calls run
  *   --trace 0|1    0: end-to-end metrics; 1: per-layer metrics of a replay
  *
  * Prints one line per call, then one JSON object as the last line.
  */
object HypBench {

  private final case class Record(seconds: Double, jobs: Long, tests: Long, answer: Any)

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted; val k = s.size
    if (k % 2 == 1) s(k / 2) else (s(k / 2 - 1) + s(k / 2)) / 2
  }

  private def json(correct: Boolean, attempted: Int, failed: Int,
                   metrics: Seq[(String, Double, String)]): String =
    metrics.map { case (k, v, u) => s""""$k": {"value": $v, "unit": "$u"}""" }
      .mkString(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {""",
                ", ", "}}")

  def main(argv: Array[String]): Unit = {
    val opt = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val (seed, seconds, trace) = (opt("seed").toLong, opt("seconds").toDouble, opt("trace") == "1")

    // -- set-up: what a spark-submit user pays once per process ----------
    val t0    = System.nanoTime()
    val spark = SparkSession.builder().appName("hypbench").getOrCreate()
    val counter = new JobCounter(spark)
    spark.sparkContext.addSparkListener(counter)
    val wl     = Workload(opt("workload"), spark, seed)
    val setupS = (System.nanoTime() - t0) / 1e9

    val sc = spark.sparkContext
    println(s"env java=${System.getProperty("java.version")} spark=${spark.version} " +
      s"nproc=${Runtime.getRuntime.availableProcessors} heap_max_mb=${Runtime.getRuntime.maxMemory >> 20} " +
      s"default_parallelism=${sc.defaultParallelism}")
    println("conf " + sc.getConf.getAll.filterNot { case (k, _) =>
      Set("spark.app.id", "spark.app.startTime", "spark.app.submitTime", "spark.driver.port",
          "spark.executor.id")(k)
    }.sorted.map { case (k, v) => s"$k=$v" }.mkString(" "))
    println(f"workload ${wl.name} seed=$seed setup_s=$setupS%.4f")

    val problems = mutable.ArrayBuffer.empty[String]
    var attempted = 0
    var failed    = 0

    // the job counter is exact: an RDD count() runs one job, a DataFrame
    // count() two (adaptive execution runs its shuffle stage as a job)
    for ((what, action, want) <- Seq[(String, () => Long, Long)](
           ("RDD", () => sc.parallelize(1 to 1000, 4).count(), 1L),
           ("DataFrame", () => spark.range(1000).count(), 2L))) {
      val j0 = counter.jobs
      action()
      val got = counter.jobs - j0
      if (got != want) problems += s"self-test: one $what count() counted $got jobs, not $want"
    }

    def untraced(label: String): Option[Record] = {
      attempted += 1
      val j0 = counter.jobs
      val s0 = System.nanoTime()
      try {
        val c   = wl.call()
        val dt  = (System.nanoTime() - s0) / 1e9
        val rec = Record(dt, counter.jobs - j0, c.tests, c.answer)
        val bad = wl.mismatches(c.answer)
        println(f"$label%-9s ${rec.seconds}%.4f s  jobs=${rec.jobs} tests=${rec.tests}" +
          (if (bad.isEmpty) "" else "  MISMATCH " + bad.mkString("; ")))
        if (bad.nonEmpty) { failed += 1; None } else Some(rec)
      } catch {
        case e: Exception =>
          failed += 1
          println(s"$label FAILED: $e")
          None
      }
    }

    val warm = (1 to wl.warmups).flatMap(i => untraced(s"warmup$i"))
    val runStart = System.nanoTime()
    def timeLeft = (System.nanoTime() - runStart) / 1e9 < seconds
    val timed   = mutable.ArrayBuffer.empty[Record]
    val layered = mutable.ArrayBuffer.empty[Map[String, Double]]

    // one replay through repro.core; valid only if it reproduces `ref`
    def replay(ref: Record): Unit = {
      attempted += 1
      val tr = new Tracer(counter)
      val (j0, k0) = (counter.jobs, counter.tasks)
      val (cpu0, gc0, ms0) = (JvmClock.cpuSeconds, JvmClock.gcSeconds, System.currentTimeMillis)
      val s0 = System.nanoTime()
      try {
        val (answer, layers) = wl.replay(tr)
        val wall = (System.nanoTime() - s0) / 1e9
        val (cpu, gc, ms1) =
          (JvmClock.cpuSeconds - cpu0, JvmClock.gcSeconds - gc0, System.currentTimeMillis)
        val bad = (if (answer == ref.answer) Nil
                   else Seq(s"replay differs from the untraced call: $answer vs ${ref.answer}")) ++
                  (if (tr.topLevel >= 0.95 * wall) Nil
                   else Seq(f"spans cover ${tr.topLevel / wall}%.3f of the replay, under 0.95")) ++
                  wl.mismatches(answer)
        println(f"traced    $wall%.4f s  coverage=${tr.topLevel / wall}%.4f" +
          (if (bad.isEmpty) "" else "  MISMATCH (trace invalid) " + bad.mkString("; ")))
        if (bad.nonEmpty) failed += 1
        else layered += Workload.layerMetrics.map(_._1 -> 0.0).toMap ++ layers ++ Map(
          "spark.jobs"     -> (counter.jobs - j0).toDouble,
          "spark.tasks"    -> (counter.tasks - k0).toDouble,
          "spark.busy_s"   -> counter.busySeconds(ms0, ms1),
          "driver.cpu_s"   -> cpu,
          "jvm.gc_s"       -> gc,
          "trace.coverage" -> tr.topLevel / wall,
          "trace.overhead" -> wall / ref.seconds)
      } catch {
        case e: Exception => failed += 1; println(s"traced FAILED: $e")
      }
    }

    do untraced(if (trace) "untraced" else "timed").foreach { ref =>
      timed += ref
      if (trace) replay(ref)
    } while (timeLeft)

    // job and test counts must repeat exactly across calls
    val counts = (warm ++ timed).map(r => (r.jobs, r.tests)).distinct
    if (counts.size > 1) problems += s"counts differ across calls: $counts"
    if (timed.isEmpty) problems += "no call succeeded"

    problems.foreach(p => println(s"PROBLEM $p"))
    val correct = failed == 0 && problems.isEmpty

    val metrics: Seq[(String, Double, String)] =
      if (timed.isEmpty) Nil
      else if (!trace) {
        val callS = median(timed.map(_.seconds).toSeq)
        println(s"warmup_calls ${wl.warmups}  timed_calls ${timed.size}  " +
          s"calls_s ${timed.map(r => f"${r.seconds}%.4f").mkString(",")}")
        if (wl.opsPerCall == 1) println(f"analyze_s $callS%.4f s (median of ${timed.size})")
        else println(f"queries_per_s ${wl.opsPerCall / callS}%.2f 1/s (median call of ${timed.size})")
        println(f"failed_frac ${failed.toDouble / attempted}%.4f")
        Seq(("call_s", callS, "s"),
            ("spark_jobs", median(timed.map(_.jobs.toDouble).toSeq), "count"),
            ("setup_s", setupS, "s"),
            ("heap_mb", JvmClock.heapMb, "MB"))
      } else if (layered.isEmpty) Nil
      else Workload.layerMetrics.map { case (k, unit) =>
        val v = median(layered.map(_(k)).toSeq)
        println(f"layer $k%-30s $v%.6f $unit")
        (k, v, unit)
      }

    println(json(correct && metrics.nonEmpty, attempted, failed, metrics))
    spark.stop()
    if (!correct) sys.exit(1)
  }
}
