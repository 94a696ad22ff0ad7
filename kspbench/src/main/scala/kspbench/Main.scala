package kspbench

import org.apache.spark.sql.SparkSession

/** Benchmark entry point.
  *
  * {{{
  * Main --workload <query-local|drift-local|query-spark> --seed <n> --seconds <s> --trace <0|1>
  *      [--z 50] [--xi 8] [--k 4] [--max-iterations 1500]
  *      [--query-parallelism 2] [--spark-cores 2]
  * }}}
  *
  * Warms the JIT on a separate graph, then runs the workload once untraced.
  * With `--trace 0` the last stdout line carries the end-to-end metrics; with
  * `--trace 1` a traced pass follows and the line carries the per-layer
  * metrics and the tracing overhead (traced ÷ untraced, per end-to-end
  * metric). Diagnostics go to stderr. Exits 1 when an equivalence check of
  * the traced pass fails.
  */
object Main {

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    def arg(name: String, default: String): String = args.getOrElse(name, default)
    val plan = Plan.named(args.getOrElse("workload", sys.error("--workload is required")))
    val seed = arg("seed", "1").toLong
    val seconds = arg("seconds", "10").toDouble
    val trace = arg("trace", "0") == "1"
    val d = Settings()
    val s = Settings(
      z = arg("z", d.z.toString).toInt,
      xi = arg("xi", d.xi.toString).toInt,
      k = arg("k", d.k.toString).toInt,
      maxIterations = arg("max-iterations", d.maxIterations.toString).toInt,
      queryParallelism = arg("query-parallelism", d.queryParallelism.toString).toInt,
      sparkCores = arg("spark-cores", d.sparkCores.toString).toInt)

    val spark = if (plan.spark) Some(startSpark(s.sparkCores)) else None
    val code = try run(plan, seed, seconds, trace, s, spark) finally spark.foreach(_.stop())
    sys.exit(code)
  }

  private def run(plan: Plan, seed: Long, seconds: Double, trace: Boolean, s: Settings,
                  spark: Option[SparkSession]): Int = {
    val runner = new Runner(s, spark)
    val t0 = System.nanoTime()
    runner.warmUp(seed)
    Console.err.println(f"[kspbench] warm-up ${(System.nanoTime() - t0) / 1e9}%.1f s")
    val inputs = plan.inputs(seed, s)
    val untraced = runner.run(plan, inputs, seconds)
    report("untraced", untraced)
    if (!trace) {
      println(Stats.resultJson(untraced.check.wrongAnswers == 0, untraced.check.checked,
        untraced.check.failed, untraced.endToEnd))
      0
    } else {
      val tracer = new Tracer(s, spark)
      val traced = runner.run(plan, inputs, seconds, Some(tracer))
      report("traced", traced)
      val overhead = untraced.endToEnd.zip(traced.endToEnd).map { case (u, t) =>
        Stats.Metric(s"overhead.${u.name}", t.value / u.value, "ratio")
      }
      val disagreements = untraced.answers.iterator.collect {
        case (id, a) if traced.answers.get(id).exists(b => b.epoch == a.epoch && b != a) => id
      }.toSeq
      if (disagreements.nonEmpty)
        tracer.problems += s"traced and untraced engines disagree on queries ${disagreements.take(5).mkString(", ")}"
      if (tracer.violations > 0) tracer.problems += s"${tracer.violations} LBD bound violations"
      tracer.problems.foreach(p => Console.err.println(s"[kspbench] CHECK FAILED: $p"))
      val correct = tracer.problems.isEmpty &&
        untraced.check.wrongAnswers == 0 && traced.check.wrongAnswers == 0
      println(Stats.resultJson(correct, traced.check.checked, traced.check.failed,
        tracer.layerMetrics(traced) ++ overhead))
      if (tracer.problems.isEmpty) 0 else 1
    }
  }

  private def report(pass: String, r: PassResult): Unit = {
    val c = r.check
    Console.err.println(f"[kspbench] $pass pass ${r.wallS}%.1f s (setup ${r.setupNs.sum / 1e9}%.1f s, " +
      f"Yen check ${c.yenMs.sum / 1e3}%.1f s)")
    Console.err.println(f"[kspbench] $pass: ${r.closedMs.size} closed-loop + ${r.batchNs.size} batches, " +
      s"${r.updateNs.size} updates; failed ${c.failed} of ${c.checked} " +
      s"(${c.capStops} stopped at the iteration cap, ${c.wrongAnswers} wrong answers)")
    r.endToEnd.foreach(m => Console.err.println(f"[kspbench]   ${m.name}%-20s ${m.value}%.4f ${m.unit}"))
    if (Stats.samplesBeyond(r.closedMs.size, 95) < 10)
      Console.err.println(s"[kspbench]   query_p95_ms rests on ${r.closedMs.size} samples, fewer than 10 beyond it")
    Console.err.println(s"[kspbench]   update ms: ${r.updateNs.map(ns => f"${ns / 1e6}%.1f").mkString(" ")}; " +
      s"setup s: ${r.setupNs.map(ns => f"${ns / 1e9}%.2f").mkString(" ")}")
  }

  private def parse(argv: Array[String]): Map[String, String] = {
    require(argv.length % 2 == 0 && argv.grouped(2).forall(_.head.startsWith("--")),
      s"expected --name value pairs, got: ${argv.mkString(" ")}")
    argv.grouped(2).map(p => p(0).stripPrefix("--") -> p(1)).toMap
  }

  private def startSpark(cores: Int): SparkSession = {
    val ss = SparkSession.builder
      .master(s"local[$cores]")
      .appName("kspbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.local.dir", sys.props.getOrElse("java.io.tmpdir", "."))
      .getOrCreate()
    ss.sparkContext.setLogLevel("WARN")
    ss
  }
}
