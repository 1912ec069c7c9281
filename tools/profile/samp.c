/* samp.c — a sampling profiler you LD_PRELOAD (see README.md).
 *
 * ITIMER_PROF delivers SIGPROF every 1/SAMP_HZ seconds of CPU time; the
 * handler records the interrupted pc and walks the frame-pointer chain
 * (so build the target with -C force-frame-pointers=yes). At exit the
 * process's /proc/self/maps and every sample (hex return addresses,
 * innermost first) are written to SAMP_OUT (default samp.<pid>.out) for
 * symbolize.py. Only the thread whose stack is the [stack] mapping is
 * walked — the benchmark is single-threaded; other threads record the pc.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 48
#define MAX_SAMPLES 400000

static uintptr_t (*samples)[MAX_DEPTH];
static unsigned char *depths;
static volatile size_t count;
static uintptr_t stack_lo, stack_hi;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig; (void)info;
    if (count >= MAX_SAMPLES) return;
    ucontext_t *uc = ctx;
#if defined(__x86_64__)
    uintptr_t pc = uc->uc_mcontext.gregs[REG_RIP], fp = uc->uc_mcontext.gregs[REG_RBP];
#elif defined(__aarch64__)
    uintptr_t pc = uc->uc_mcontext.pc, fp = uc->uc_mcontext.regs[29];
#else
#error "samp.c: add the pc / frame-pointer registers of this architecture"
#endif
    uintptr_t *out = samples[count];
    int depth = 0;
    out[depth++] = pc;
    /* A frame is {caller's fp, return address}; frames move up the stack. */
    while (depth < MAX_DEPTH && fp >= stack_lo && fp + 16 <= stack_hi && fp % 8 == 0) {
        uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
        if (ret < 4096) break;
        out[depth++] = ret;
        if (next <= fp) break;
        fp = next;
    }
    depths[count++] = depth;
}

__attribute__((constructor)) static void samp_start(void) {
    samples = calloc(MAX_SAMPLES, sizeof *samples); /* touched lazily by the kernel */
    depths = calloc(MAX_SAMPLES, 1);
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (maps && fgets(line, sizeof line, maps))
        if (strstr(line, "[stack]")) sscanf(line, "%lx-%lx", &stack_lo, &stack_hi);
    if (maps) fclose(maps);
    if (!samples || !depths || !stack_hi) return;
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    const char *hz_env = getenv("SAMP_HZ");
    long us = 1000000 / (hz_env && atol(hz_env) > 0 ? atol(hz_env) : 500);
    if (us < 100) us = 100;
    if (us > 999999) us = 999999;
    struct itimerval it = {{0, us}, {0, us}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void samp_stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    if (!count) return;
    char path[256];
    const char *out_env = getenv("SAMP_OUT");
    if (out_env) snprintf(path, sizeof path, "%s", out_env);
    else snprintf(path, sizeof path, "samp.%d.out", (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out) return;
    char line[512];
    while (maps && fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    if (maps) fclose(maps);
    for (size_t i = 0; i < count; i++) {
        fputc('S', out);
        for (int d = 0; d < depths[i]; d++) fprintf(out, " %lx", (unsigned long)samples[i][d]);
        fputc('\n', out);
    }
    fclose(out);
    fprintf(stderr, "samp: %zu samples -> %s\n", count, path);
}
